// Freelist block pool + allocate_shared support for simulation payloads.
//
// Every message the simulated network carries (output records, heartbeats,
// evidence wrappers, state transfers) was a fresh make_shared: one malloc
// per payload, times every neighbor, every period. BlockPool recycles
// fixed-size blocks through per-size-class freelists, and MakePooled builds
// a shared_ptr whose object AND control block live in one pooled block
// (via std::allocate_shared), so steady-state payload traffic allocates
// nothing.
//
// Lifetime: PoolAllocator holds a shared_ptr to the pool, and every pooled
// object's control block embeds a copy, so the pool outlives the last
// payload no matter where the simulation stashes it.
//
// Threading: a pool is single-threaded, like the simulation that owns it.
// The sharded data plane runs its windows sequentially on one thread, so
// one arena serves every shard and every release goes straight back to
// the plain freelist.

#ifndef BTR_SRC_COMMON_BLOCK_POOL_H_
#define BTR_SRC_COMMON_BLOCK_POOL_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace btr {

class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
    for (void* p : all_blocks_) {
      ::operator delete(p);
    }
  }

  void* Allocate(size_t bytes) {
    const size_t cls = SizeClass(bytes);
    if (cls >= free_.size() || free_[cls].empty()) {
      void* block = ::operator new(ClassBytes(cls));
      all_blocks_.push_back(block);
      return block;
    }
    void* block = free_[cls].back();
    free_[cls].pop_back();
    return block;
  }

  void Deallocate(void* p, size_t bytes) {
    const size_t cls = SizeClass(bytes);
    if (cls >= free_.size()) {
      free_.resize(cls + 1);
    }
    free_[cls].push_back(p);
  }

  size_t allocated_blocks() const { return all_blocks_.size(); }

 private:
  // Size classes are powers of two from 32 bytes up; class i holds blocks
  // of 32 << i bytes.
  static size_t SizeClass(size_t bytes) {
    size_t cls = 0;
    size_t cap = 32;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }
  static size_t ClassBytes(size_t cls) { return size_t{32} << cls; }

  std::vector<std::vector<void*>> free_;
  std::vector<void*> all_blocks_;
};

template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<BlockPool> pool) : pool_(std::move(pool)) {}

  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(pool_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { pool_->Deallocate(p, n * sizeof(T)); }

  const std::shared_ptr<BlockPool>& pool() const { return pool_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool_ == other.pool();
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const {
    return !(*this == other);
  }

 private:
  std::shared_ptr<BlockPool> pool_;
};

// shared_ptr<T> whose storage (object + control block) comes from `pool`.
template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(const std::shared_ptr<BlockPool>& pool, Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(pool), std::forward<Args>(args)...);
}

}  // namespace btr

#endif  // BTR_SRC_COMMON_BLOCK_POOL_H_
