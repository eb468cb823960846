/**
 * @file
 * Slab/free-list storage for dynamic-instruction control blocks.
 *
 * The timing model allocates one DynInst per fetched instruction —
 * by far the hottest allocation in a simulation. SlabArena hands out
 * fixed-size blocks carved from large slabs and recycles them through
 * a LIFO free list, so steady-state simulation performs no heap
 * allocation at all on the fetch path.
 *
 * Blocks are freed explicitly (allocDynInst/freeDynInst in
 * dyn_inst.hh): the in-flight window owns every instruction, and a
 * block returns here when its window slot pops or at Processor
 * teardown (DESIGN.md §13). live()
 * counts the blocks handed out; the Processor checks it against the
 * window and fetch latch at the end of every run, and the destructor
 * panics unless it is back at 0. Under AddressSanitizer a freed block
 * is poisoned until it is handed out again, so any read of a retired
 * or squashed instruction is reported.
 *
 * The arena is intentionally NOT thread-safe: each Processor owns one
 * and no instruction leaves that Processor. Concurrent simulations
 * (SimRunner) each use their own arena.
 */

#ifndef TCFILL_UARCH_INST_POOL_HH
#define TCFILL_UARCH_INST_POOL_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace tcfill
{

/** Fixed-block slab allocator with a LIFO free list. */
class SlabArena
{
  public:
    /** Blocks per slab; sized so a slab holds a full window's worth. */
    static constexpr std::size_t kBlocksPerSlab = 1024;

    SlabArena() = default;
    SlabArena(const SlabArena &) = delete;
    SlabArena &operator=(const SlabArena &) = delete;

    ~SlabArena()
    {
        panic_if(live_ != 0,
                 "SlabArena destroyed with %llu blocks still live",
                 static_cast<unsigned long long>(live_));
        for (void *slab : slabs_) {
            unpoison(slab, kBlocksPerSlab * block_bytes_);
            ::operator delete(slab, std::align_val_t(block_align_));
        }
    }

    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        if (block_bytes_ == 0) {
            // First allocation fixes the block geometry.
            block_align_ = align < alignof(std::max_align_t)
                ? alignof(std::max_align_t) : align;
            block_bytes_ = (bytes + block_align_ - 1) &
                ~(block_align_ - 1);
        }
        panic_if(bytes > block_bytes_ || align > block_align_,
                 "SlabArena: mixed block geometry (%zu/%zu vs %zu/%zu)",
                 bytes, align, block_bytes_, block_align_);
        ++live_;
        if (!free_.empty()) {
            void *p = free_.back();
            free_.pop_back();
            unpoison(p, block_bytes_);
            ++reused_;
            return p;
        }
        if (slabs_.empty() || slab_used_ == kBlocksPerSlab) {
            slabs_.push_back(::operator new(
                kBlocksPerSlab * block_bytes_,
                std::align_val_t(block_align_)));
            slab_used_ = 0;
        }
        void *p = static_cast<std::byte *>(slabs_.back()) +
            slab_used_ * block_bytes_;
        ++slab_used_;
        return p;
    }

    void
    deallocate(void *p)
    {
        panic_if(live_ == 0, "SlabArena: deallocate underflow");
        --live_;
        poison(p, block_bytes_);
        free_.push_back(p);
    }

    /** Blocks currently handed out. */
    std::uint64_t live() const { return live_; }
    /** Allocations served from the free list (recycled blocks). */
    std::uint64_t reused() const { return reused_; }
    /** Slabs reserved from the heap. */
    std::size_t slabs() const { return slabs_.size(); }

  private:
    // A free block is poisoned under AddressSanitizer: reading a
    // retired or squashed instruction is then a reported error.
    static void
    poison(void *p, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(p, bytes);
#else
        (void)p;
        (void)bytes;
#endif
    }

    static void
    unpoison(void *p, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
        (void)p;
        (void)bytes;
#endif
    }

    std::size_t block_bytes_ = 0;
    std::size_t block_align_ = 0;
    std::vector<void *> slabs_;
    std::size_t slab_used_ = 0;
    std::vector<void *> free_;
    std::uint64_t live_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace tcfill

#endif // TCFILL_UARCH_INST_POOL_HH
