/**
 * @file
 * ArrayPool: one sweep worker's cache-array storage, recycled between
 * scenarios.
 *
 * Building a machine used to value-initialise every line of every
 * cache array (344,064 lines, 16.5 MB for the paper's 16-core machine),
 * although a short scenario fills sets holding a tenth of them.  A
 * worker now keeps the storage of the scenario it just finished: each
 * pooled CacheArray restores the sets its journal recorded (see
 * cache_array.hh) when it is destroyed and gives the storage back, and
 * the next machine's arrays take it instead of allocating.  A
 * scenario's fixed cost thus follows the sets it touches, not the size
 * of the machine.
 *
 * Contract:
 *  - Every held storage is in construction state, so a recycled array
 *    is indistinguishable from a fresh one (tests pin this line by
 *    line, and a Session that recycles produces the same rows as fresh
 *    systems).
 *  - The pool holds one machine's arrays.  A machine calls keepOnly()
 *    with its array shapes before building them, which frees whatever
 *    it will not take; peak memory is the largest machine of a plan,
 *    not the sum over its machines.
 *  - Pooled storage is plain heap memory, independent of the worker's
 *    Arena (which is reset between scenarios).
 *  - A pool serves one thread at a time and must outlive every array
 *    built from it.  Callers without a pool (single runs, tests, the
 *    benchmark's traced replay) build arrays fresh, as before.
 */

#ifndef REFRINT_MEM_ARRAY_POOL_HH
#define REFRINT_MEM_ARRAY_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache_array.hh"

namespace refrint
{

class ArrayPool
{
  public:
    ArrayPool() = default;
    ArrayPool(const ArrayPool &) = delete;
    ArrayPool &operator=(const ArrayPool &) = delete;

    /** Free every held storage that none of the arrays of @p shapes
     *  (the next machine's) will take. */
    void keepOnly(std::vector<ArrayShape> shapes);

    /** Storage for an array of @p shape: a held one when there is one,
     *  otherwise newly built (both in construction state). */
    ArrayStorage take(ArrayShape shape);

    /** Hold @p storage, already restored by its array, for a later
     *  take(). */
    void give(ArrayShape shape, ArrayStorage &&storage);

    /** Arrays held, and their total line count (tests). */
    std::size_t heldArrays() const { return held_.size(); }
    std::uint64_t heldLines() const;

  private:
    struct Held
    {
        ArrayShape shape;
        ArrayStorage storage;
    };

    std::vector<Held> held_;
};

} // namespace refrint

#endif // REFRINT_MEM_ARRAY_POOL_HH
