#include "sim/memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/error.hh"

namespace persim {
namespace {

static_assert(std::endian::native == std::endian::little,
              "MemoryImage's word fast path assumes a little-endian "
              "host");

} // namespace

MemoryImage::MemoryImage(MemoryImage &&other) noexcept
    : index_(std::exchange(other.index_, FlatIndexMap{})),
      pages_(std::move(other.pages_))
{
    other.pages_.clear();
}

MemoryImage &
MemoryImage::operator=(MemoryImage &&other) noexcept
{
    if (this != &other) {
        index_ = std::exchange(other.index_, FlatIndexMap{});
        pages_ = std::move(other.pages_);
        other.pages_.clear();
    }
    return *this;
}

const MemoryImage::Page *
MemoryImage::pageForIfPresent(Addr addr) const
{
    const std::uint32_t slot = index_.find(addr / page_size);
    return slot == FlatIndexMap::no_slot ? nullptr : pages_[slot].get();
}

std::uint64_t
MemoryImage::loadSlow(Addr addr, unsigned size) const
{
    PERSIM_REQUIRE(size >= 1 && size <= max_access_size,
                   "load size must be 1..8, got " << size);
    const std::uint64_t offset = addr % page_size;
    if (offset + size <= page_size) {
        const Page *page = pageForIfPresent(addr);
        std::uint64_t word = 0;
        if (page)
            std::memcpy(&word, page->data() + offset, size);
        return word;
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        const Page *page = pageForIfPresent(a);
        const std::uint8_t byte = page ? (*page)[a % page_size] : 0;
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

void
MemoryImage::storeSlow(Addr addr, unsigned size, std::uint64_t value)
{
    PERSIM_REQUIRE(size >= 1 && size <= max_access_size,
                   "store size must be 1..8, got " << size);
    const std::uint64_t offset = addr % page_size;
    if (offset + size <= page_size) {
        std::memcpy(pageFor(addr).data() + offset, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        pageFor(a)[a % page_size] =
            static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
    }
}

MemoryImage
MemoryImage::clone() const
{
    MemoryImage copy;
    copy.index_ = index_;
    copy.pages_.reserve(pages_.size());
    for (const auto &page : pages_)
        copy.pages_.push_back(std::make_unique<Page>(*page));
    return copy;
}

void
MemoryImage::clear()
{
    index_.clear();
    pages_.clear();
}

void
MemoryImage::zero()
{
    for (const auto &page : pages_)
        page->fill(0);
}

void
MemoryImage::readBytes(void *dst, Addr src, std::size_t n) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        const std::uint64_t offset = src % page_size;
        const std::size_t span =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                n, page_size - offset));
        if (const Page *page = pageForIfPresent(src))
            std::memcpy(out, page->data() + offset, span);
        else
            std::memset(out, 0, span);
        out += span;
        src += span;
        n -= span;
    }
}

void
MemoryImage::writeBytes(Addr dst, const void *src, std::size_t n)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const std::uint64_t offset = dst % page_size;
        const std::size_t span =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                n, page_size - offset));
        std::memcpy(pageFor(dst).data() + offset, in, span);
        in += span;
        dst += span;
        n -= span;
    }
}

} // namespace persim
