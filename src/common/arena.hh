/**
 * @file
 * Bump arena with chunk recycling, plus an STL allocator adaptor.
 *
 * A sweep builds and tears down one CmpSystem per scenario — hierarchy
 * units, refresh-engine heaps, event-queue bands — 473+ times for the
 * default plan.  Instead of round-tripping every vector through
 * malloc/free each time, a worker thread owns one Arena, hands it to
 * the run's construction chain, and reset()s it between scenarios: the
 * chunks stay hot in the worker's cache and the allocator becomes a
 * pointer bump.
 *
 * The arena recycles memory, not contents: whatever it backs is built
 * (value-initialised) again in every scenario.  The cache arrays, the
 * one structure whose construction cost grows with the machine rather
 * than with the sets a scenario touches, therefore come from the
 * worker's ArrayPool instead (mem/array_pool.hh), which hands them over
 * already restored; the arena backs them only for callers without a
 * pool.
 *
 * Ownership/lifetime contract:
 *  - The Arena must outlive every container allocated from it (Session
 *    resets a worker's arena only after the scenario's RunResult has
 *    been copied out; nothing arena-backed escapes a run).
 *  - reset() recycles all chunks without returning them to the OS;
 *    individual deallocation is a no-op (freed blocks are reclaimed at
 *    the next reset).  Vectors that grow leave their old blocks behind
 *    until then — bounded by the usual geometric-growth constant.
 *  - Arena* is nullable everywhere it is threaded: a null arena makes
 *    ArenaAllocator fall back to operator new/delete, so standalone
 *    construction (tests, tools) needs no arena at all.
 *  - An Arena serves one thread at a time (no internal locking).
 *
 * Determinism: the arena only changes *where* containers live, never
 * what they hold or how they iterate, so simulated results are
 * byte-identical with and without one.
 */

#ifndef REFRINT_COMMON_ARENA_HH
#define REFRINT_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace refrint
{

class Arena
{
  public:
    explicit Arena(std::size_t chunkBytes = 1u << 20)
        : chunkBytes_(chunkBytes < 4096 ? 4096 : chunkBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate @p bytes aligned to @p align (a power of two). */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        if (bytes == 0)
            bytes = 1;
        for (;;) {
            if (cur_ < chunks_.size()) {
                Chunk &c = chunks_[cur_];
                // Align the absolute address, not the chunk offset:
                // operator new[] only guarantees max_align_t, so
                // over-aligned requests need the full computation.
                const auto base =
                    reinterpret_cast<std::uintptr_t>(c.mem.get());
                const std::size_t at =
                    alignUp(base + off_, align) - base;
                if (at + bytes <= c.size) {
                    off_ = at + bytes;
                    allocated_ += bytes;
                    return c.mem.get() + at;
                }
                // This chunk is exhausted for a request this size; move
                // on (the tail sliver is reclaimed at the next reset).
                ++cur_;
                off_ = 0;
                continue;
            }
            addChunk(bytes + align);
        }
    }

    /** Recycle every chunk: subsequent allocations reuse the existing
     *  memory from the start.  All outstanding blocks must be dead. */
    void
    reset()
    {
        cur_ = 0;
        off_ = 0;
        allocated_ = 0;
    }

    /** Bytes handed out since the last reset (diagnostics). */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Total bytes of chunk capacity ever reserved (diagnostics). */
    std::size_t
    capacityBytes() const
    {
        std::size_t n = 0;
        for (const Chunk &c : chunks_)
            n += c.size;
        return n;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<unsigned char[]> mem;
        std::size_t size = 0;
    };

    static std::size_t
    alignUp(std::size_t v, std::size_t align)
    {
        return (v + align - 1) & ~(align - 1);
    }

    void
    addChunk(std::size_t atLeast)
    {
        Chunk c;
        c.size = atLeast > chunkBytes_ ? atLeast : chunkBytes_;
        c.mem = std::make_unique<unsigned char[]>(c.size);
        chunks_.push_back(std::move(c));
        cur_ = chunks_.size() - 1;
        off_ = 0;
    }

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    std::size_t cur_ = 0; ///< index of the chunk being bumped
    std::size_t off_ = 0; ///< bump offset within chunks_[cur_]
    std::size_t allocated_ = 0;
};

/**
 * STL allocator over a (nullable) Arena.  With a null arena it is
 * exactly operator new/delete, so arena-typed containers behave like
 * plain std::vector when no arena is supplied.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    ArenaAllocator() = default;
    explicit ArenaAllocator(Arena *arena) : arena_(arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &o) : arena_(o.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_ != nullptr)
            return static_cast<T *>(arena_->allocate(bytes, alignof(T)));
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        if (arena_ == nullptr)
            ::operator delete(p);
        // Arena blocks are reclaimed wholesale at reset().
    }

    Arena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &o) const
    {
        return arena_ == o.arena();
    }

    template <typename U>
    bool
    operator!=(const ArenaAllocator<U> &o) const
    {
        return arena_ != o.arena();
    }

  private:
    Arena *arena_ = nullptr;
};

/** Vector whose storage may come from a worker's recycled arena. */
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

} // namespace refrint

#endif // REFRINT_COMMON_ARENA_HH
