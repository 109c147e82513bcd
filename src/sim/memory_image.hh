/**
 * @file
 * Sparse simulated memory.
 *
 * MemoryImage backs the simulated flat address space with 4 KiB pages
 * allocated on demand. Values are stored little-endian so that a
 * multi-byte load returns what a multi-byte store wrote, and so that
 * recovery analyses can reconstruct images byte-for-byte.
 *
 * Layout: a FlatIndexMap maps each page number to a dense slot, and
 * the pages live in a vector indexed by that slot (slots are handed
 * out in first-touch order). A load or store that stays inside one
 * page costs one probe plus one 8-byte memcpy under a size mask (in
 * a page's last 7 bytes, a memcpy of just the access size); the host
 * must be little-endian so that the word's low bytes are the lowest
 * addresses. Only an access that straddles a page boundary
 * walks byte by byte. readBytes/writeBytes copy whole page spans, and
 * an absent page reads as zeros without being materialized.
 *
 * Crash-state sampling builds thousands of images of one log: zero()
 * clears every byte but keeps the pages and the index, so a reused
 * scratch image stops paying for allocation after its first sample.
 */

#ifndef PERSIM_SIM_MEMORY_IMAGE_HH
#define PERSIM_SIM_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace persim {

/** Byte-addressable sparse memory with on-demand page allocation. */
class MemoryImage
{
  public:
    static constexpr std::uint64_t page_size = 4096;

    MemoryImage() = default;
    MemoryImage(MemoryImage &&other) noexcept;
    MemoryImage &operator=(MemoryImage &&other) noexcept;

    /** Read @p size (1..8) bytes at @p addr as a little-endian value. */
    std::uint64_t
    load(Addr addr, unsigned size) const
    {
        const std::uint64_t offset = addr % page_size;
        if (size - 1 < max_access_size && offset <= page_size - 8) {
            const std::uint32_t slot = index_.find(addr / page_size);
            if (slot == FlatIndexMap::no_slot)
                return 0;
            std::uint64_t word;
            std::memcpy(&word, pages_[slot]->data() + offset, 8);
            return word & sizeMask(size);
        }
        return loadSlow(addr, size);
    }

    /** Write the low @p size (1..8) bytes of @p value at @p addr. */
    void
    store(Addr addr, unsigned size, std::uint64_t value)
    {
        const std::uint64_t offset = addr % page_size;
        if (size - 1 < max_access_size && offset <= page_size - 8) {
            std::uint8_t *at = pageFor(addr).data() + offset;
            const std::uint64_t mask = sizeMask(size);
            std::uint64_t word;
            std::memcpy(&word, at, 8);
            word = (word & ~mask) | (value & mask);
            std::memcpy(at, &word, 8);
            return;
        }
        storeSlow(addr, size, value);
    }

    /** Copy @p n raw bytes out of simulated memory. */
    void readBytes(void *dst, Addr src, std::size_t n) const;

    /** Copy @p n raw bytes into simulated memory. */
    void writeBytes(Addr dst, const void *src, std::size_t n);

    /** Number of pages materialized so far (zero() keeps them). */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Deep copy. MemoryImage is deliberately move-only (pages are
     * uniquely owned); copy-then-perturb analyses — fault models,
     * corruption fuzzers — clone explicitly instead.
     */
    MemoryImage clone() const;

    /** Drop all contents and free the pages. */
    void clear();

    /** Zero every byte, keeping the pages allocated for reuse. */
    void zero();

  private:
    using Page = std::array<std::uint8_t, page_size>;

    /** Low @p size bytes of a word set, the rest clear. */
    static constexpr std::uint64_t
    sizeMask(unsigned size)
    {
        return size >= 8 ? ~0ULL : (1ULL << (8 * size)) - 1;
    }

    /** Size check, accesses in a page's last 7 bytes, and accesses
        that straddle two pages. */
    std::uint64_t loadSlow(Addr addr, unsigned size) const;
    void storeSlow(Addr addr, unsigned size, std::uint64_t value);

    /** Page containing @p addr, materializing it zero-filled if new. */
    Page &
    pageFor(Addr addr)
    {
        bool inserted = false;
        const std::uint32_t slot =
            index_.findOrInsert(addr / page_size, inserted);
        if (inserted)
            pages_.push_back(std::make_unique<Page>()); // Zero-filled.
        return *pages_[slot];
    }

    /** Page containing @p addr, or nullptr if never written. */
    const Page *pageForIfPresent(Addr addr) const;

    /** Page number -> index into pages_. */
    FlatIndexMap index_;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace persim

#endif // PERSIM_SIM_MEMORY_IMAGE_HH
