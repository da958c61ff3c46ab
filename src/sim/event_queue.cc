#include "sim/event_queue.hh"

namespace refrint
{

void
EventQueue::promoteFar()
{
    // Pull everything inside the next horizon window into the heap and
    // compact the remainder in place; each entry is promoted at most
    // once, so the rescans amortize to O(1) per event.  Promotion
    // targets the heap only — the window slide migrates heap entries
    // into wheel buckets in pop order, which keeps buckets seq-sorted.
    const Tick limit = farMin_ > kTickNever - kFarHorizon
                           ? kTickNever
                           : farMin_ + kFarHorizon;
    Tick newMin = kTickNever;
    std::size_t out = 0;
    for (const Entry &e : far_) {
        if (e.key.when <= limit) {
            push(e.key, e.val);
        } else {
            far_[out++] = e;
            if (e.key.when < newMin)
                newMin = e.key.when;
        }
    }
    far_.resize(out);
    farMin_ = newMin;
}

bool
EventQueue::prepareNext(Tick limit)
{
    for (;;) {
        // Retire the exhausted current bucket (every entry consumed).
        bucketOf(base_).clear();
        markEmpty(static_cast<unsigned>(base_ & kWheelMask));
        pos_ = 0;

        const Tick wNext = nextWheelTick();
        const Tick hNext = keys_.empty() ? kTickNever : keys_.front().when;
        const Tick cand = wNext < hNext ? wNext : hNext;

        // <= so an equal-tick far entry (which can carry a smaller seq
        // than the heap/wheel candidate) is promoted before committing.
        if (!far_.empty() && farMin_ <= cand) {
            promoteFar();
            continue; // recompute against the promoted entries
        }
        if (cand == kTickNever || cand > limit)
            return false; // base_ stays: the window has not moved
        base_ = cand;
        pos_ = 0;

        // Slide the window over the heap: entries now inside it become
        // bucket entries, in (when, seq) pop order.
        while (!keys_.empty() && keys_.front().when <= base_ + kWheelMask) {
            const Key k = keys_.front();
            const Val v = vals_.front();
            popTop();
            bucketInsert(k, v);
        }
        return true;
    }
}

} // namespace refrint
