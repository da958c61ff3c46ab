/**
 * @file
 * Parameterized synthetic reference-stream generator.
 *
 * Every paper application is an AppProfile instance over the same
 * mechanics:
 *
 *  - a per-core private region, accessed either in streaming runs
 *    (sequential line walks, the dominant mode of the Class 1 codes) or
 *    with a skewed hot/cold draw (temporal locality);
 *  - a shared region with two access styles:
 *      * migratory producer/consumer chunks that rotate among cores,
 *        producing the dirty->shared directory churn that gives the LLC
 *        "visibility" (§3.3);
 *      * read-mostly lookups with a skewed draw (Class 3 behaviour).
 *
 * Address map (line-aligned, disjoint):
 *   private:  0x1000'0000 + core * privateBytes (rounded up)
 *   shared:   0x8000'0000
 *   code:     0xC000'0000 (see Core::kCodeBase)
 */

#ifndef REFRINT_WORKLOAD_SYNTHETIC_HH
#define REFRINT_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <memory>

#include "common/prng.hh"
#include "workload/workload.hh"

namespace refrint
{

/** Tunables that define one application's behaviour. */
struct AppProfile
{
    const char *name = "app";
    int paperClass = 0;

    std::uint64_t privateBytes = 1 << 20; ///< per core
    std::uint64_t sharedBytes = 1 << 20;  ///< whole machine

    /**
     * Fraction of references hitting a tiny per-core hot set (stack,
     * loop-carried locals).  Real SPLASH-2/PARSEC codes see >90% L1
     * hit rates; without this component every reference would walk the
     * large data structures and the L1s would behave unrealistically.
     */
    double hotFraction = 0.60;
    std::uint64_t hotBytes = 4 * 1024; ///< per core, fits any DL1

    double sharedFraction = 0.1;  ///< P(ref targets the shared region)
    double writeFraction = 0.3;   ///< P(write) for non-migratory refs
    double seqFraction = 0.0;     ///< P(private ref streams sequentially)
    std::uint32_t seqRunLines = 64; ///< mean streaming run length
    double skew = 2.0;            ///< hot/cold skew for random draws
    double migratoryFraction = 0.0; ///< P(shared ref is producer/consumer)
    std::uint32_t chunkLines = 64;  ///< migratory chunk size
    std::uint32_t rotatePeriod = 2000; ///< refs between chunk rotations
    std::uint32_t gapMin = 2;     ///< min compute gap (cycles)
    std::uint32_t gapMax = 5;     ///< max compute gap
    std::uint32_t codeLines = 128;
};

class SyntheticStream : public CoreStream
{
  public:
    SyntheticStream(const AppProfile &prof, CoreId core,
                    std::uint32_t numCores, std::uint64_t seed);

    MemRef next() override;

    static constexpr Addr kPrivateBase = 0x1000'0000ULL;
    static constexpr Addr kSharedBase = 0x8000'0000ULL;

    /** Generator line granularity (matches the paper caches' 64 B
     *  lines; named so it cannot hide as a magic topology constant).
     *  The private-region address map supports up to 64 cores before
     *  kPrivateBase + core * span would reach kSharedBase. */
    static constexpr Addr kLineBytes = 64;

  private:
    Addr hotRef(bool &write);
    Addr privateRef(bool &write);
    Addr sharedRef(bool &write);

    AppProfile prof_;
    CoreId core_;
    std::uint32_t numCores_;
    Prng prng_;

    Addr privBase_;
    std::uint32_t privLines_;
    std::uint32_t sharedLines_;
    std::uint32_t hotLines_;

    // streaming state
    std::uint32_t seqCursor_ = 0;
    std::uint32_t seqLeft_ = 0;

    // migratory producer/consumer state
    std::uint32_t chunksTotal_;
    std::uint64_t refCount_ = 0;
};

/** A Workload wrapping an AppProfile. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const AppProfile &prof) : prof_(prof) {}

    const char *name() const override { return prof_.name; }
    int paperClass() const override { return prof_.paperClass; }
    std::uint32_t codeLines() const override { return prof_.codeLines; }

    bool
    footprint(WorkloadFootprint &fp) const override
    {
        fp.privateBytes = static_cast<double>(prof_.privateBytes);
        fp.sharedBytes = static_cast<double>(prof_.sharedBytes);
        fp.hotFraction = prof_.hotFraction;
        fp.writeFraction = prof_.writeFraction;
        fp.sharedFraction = prof_.sharedFraction;
        return true;
    }

    std::unique_ptr<CoreStream>
    makeStream(CoreId core, std::uint32_t numCores,
               std::uint64_t seed) const override
    {
        return std::make_unique<SyntheticStream>(prof_, core, numCores,
                                                 seed);
    }

  private:
    AppProfile prof_;
};

} // namespace refrint

#endif // REFRINT_WORKLOAD_SYNTHETIC_HH
