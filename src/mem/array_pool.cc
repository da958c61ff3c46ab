#include "mem/array_pool.hh"

#include <algorithm>
#include <utility>

namespace refrint
{

void
ArrayPool::keepOnly(std::vector<ArrayShape> shapes)
{
    std::vector<Held> kept;
    for (Held &h : held_) {
        auto it = std::find(shapes.begin(), shapes.end(), h.shape);
        if (it == shapes.end())
            continue; // freed with held_ below
        *it = shapes.back();
        shapes.pop_back();
        kept.push_back(std::move(h));
    }
    held_ = std::move(kept);
}

ArrayStorage
ArrayPool::take(ArrayShape shape)
{
    for (std::size_t i = held_.size(); i-- > 0;) {
        if (!(held_[i].shape == shape))
            continue;
        ArrayStorage s = std::move(held_[i].storage);
        if (i + 1 != held_.size())
            held_[i] = std::move(held_.back());
        held_.pop_back();
        return s;
    }
    return ArrayStorage(shape, nullptr);
}

void
ArrayPool::give(ArrayShape shape, ArrayStorage &&storage)
{
    held_.push_back({shape, std::move(storage)});
}

std::uint64_t
ArrayPool::heldLines() const
{
    std::uint64_t n = 0;
    for (const Held &h : held_)
        n += h.shape.lines;
    return n;
}

} // namespace refrint
