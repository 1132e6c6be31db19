// Small-buffer-optimized move-only callable — the kernel's allocation-free
// replacement for std::function on the event hot path.
//
// std::function's inline buffer (16 bytes on libstdc++) is too small for the
// continuations the simulation clients schedule (the heartbeat chain captures
// a std::string channel name: 48 bytes), so every schedule_*() paid a heap
// allocation and every priority_queue copy paid another.  InlineFn stores any
// callable up to `Capacity` bytes directly inside the object; larger callables
// overflow to the heap (correctness fallback, never taken by in-tree lambdas —
// the scheduling clients static_assert `Simulator::fits_inline`).
//
// Move-only by design: the kernel only ever moves entries, and move-only
// storage admits non-copyable captures (unique_ptr etc.) for free.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace aft::util {

template <typename Signature, std::size_t Capacity = 64>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
  template <typename F>
  using Decayed = std::decay_t<F>;

 public:
  /// True when a callable of type F is stored in the inline buffer (no heap).
  /// Requires nothrow-move-constructibility so InlineFn's own moves stay
  /// noexcept; a throwing-move callable is stored on the heap instead.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(Decayed<F>) <= Capacity &&
      alignof(Decayed<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Decayed<F>>;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = Decayed<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(fn));
  }

  /// Destroys any stored callable and builds `fn` in this object's storage:
  /// one construction, where `*this = InlineFn(fn)` would add a relocation.
  template <typename F, typename D = Decayed<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& fn) {
    reset();
    construct<D>(std::forward<F>(fn));
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  R operator()(Args... args) {
    if (ops_ == nullptr) throw std::bad_function_call();
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  /// Precondition: empty.
  template <typename D, typename F>
  void construct(F&& fn) {
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  // Manual dispatch table: one static instance per stored type, so an
  // InlineFn is just {buffer, ops pointer} and every operation is one
  // indirect call — no RTTI, no virtual bases.
  struct Ops {
    R (*invoke)(void* obj, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move dst <- src, destroy src
    void (*destroy)(void* obj) noexcept;
    /// Relocation is equivalent to a raw byte copy of the buffer: true for
    /// trivially copyable inline callables and for the heap case (a stolen
    /// pointer).  Lets moves take an inline memcpy instead of an indirect
    /// call — the kernel's heap sifts entries on every schedule/dispatch,
    /// so this branch is the difference between a fixed-size copy the
    /// compiler vectorizes and two opaque calls per level.
    bool trivial_relocate;
  };

  /// Precondition: ops_ == other.ops_ != nullptr.  Leaves `other` empty.
  void relocate_from(InlineFn& other) noexcept {
    if (ops_->trivial_relocate) {
      std::memcpy(storage_, other.storage_, kStorage);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  template <typename D>
  static D* as(void* storage) noexcept {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D*& heap_ptr(void* storage) noexcept {
    return *std::launder(reinterpret_cast<D**>(storage));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* obj, Args&&... args) -> R {
        return (*as<D>(obj))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = as<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* obj) noexcept { as<D>(obj)->~D(); },
      std::is_trivially_copyable_v<D>,
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* obj, Args&&... args) -> R {
        return (*heap_ptr<D>(obj))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        // The buffer holds a plain pointer: relocation is a pointer copy.
        ::new (dst) D*(heap_ptr<D>(src));
      },
      [](void* obj) noexcept { delete heap_ptr<D>(obj); },
      true,  // the buffer holds a plain pointer; stealing it is a byte copy
  };

  static constexpr std::size_t kStorage =
      Capacity >= sizeof(void*) ? Capacity : sizeof(void*);

  alignas(std::max_align_t) unsigned char storage_[kStorage];
  const Ops* ops_ = nullptr;
};

}  // namespace aft::util
