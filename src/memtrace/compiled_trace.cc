#include "memtrace/compiled_trace.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/error.hh"

namespace persim {

namespace {

constexpr std::array<char, 8> ctc_magic =
    {'P', 'S', 'I', 'M', 'C', 'T', 'C', '1'};
constexpr std::uint32_t endian_marker = 0x01020304u;
constexpr std::size_t header_size = 128;
constexpr std::size_t header_checked = 96;
constexpr std::size_t section_align = 64;
constexpr std::size_t section_count = 13;

std::uint64_t
align64(std::uint64_t offset)
{
    return (offset + (section_align - 1)) & ~std::uint64_t{section_align - 1};
}

/** Column element widths, in payload order. */
constexpr std::size_t section_width[section_count] = {
    1, 1, 1, 4, 4, 4, 8, 8, 8, 4, 1, 8, 8,
};

struct Layout
{
    std::uint64_t offset[section_count]; //!< From payload start.
    std::uint64_t bytes[section_count];
    std::uint64_t payload_bytes;
};

/** Section row counts in payload order for the given header counts. */
void
sectionRows(std::uint64_t micro_ops, std::uint64_t runs,
            std::uint64_t track_slots, std::uint64_t atomic_slots,
            std::uint64_t rows[section_count])
{
    for (int i = 0; i < 9; ++i)
        rows[i] = micro_ops;
    rows[9] = runs;
    rows[10] = runs;
    rows[11] = track_slots;
    rows[12] = atomic_slots;
}

Layout
layoutFor(std::uint64_t micro_ops, std::uint64_t runs,
          std::uint64_t track_slots, std::uint64_t atomic_slots)
{
    std::uint64_t rows[section_count];
    sectionRows(micro_ops, runs, track_slots, atomic_slots, rows);
    Layout layout = {};
    std::uint64_t at = 0;
    for (std::size_t i = 0; i < section_count; ++i) {
        at = align64(at);
        layout.offset[i] = at;
        layout.bytes[i] = rows[i] * section_width[i];
        at += layout.bytes[i];
    }
    layout.payload_bytes = align64(at);
    return layout;
}

void
requireLittleEndianHost(const std::string &path)
{
    PERSIM_REQUIRE(std::endian::native == std::endian::little,
                   "compiled traces require a little-endian host: "
                       << path);
}

/** Store @p v little-endian into out[0..bytes). */
void
putLe(unsigned char *out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

std::uint64_t
getLe(const unsigned char *in, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

/** Serialize the 128-byte header (checksum filled in). */
void
packHeader(unsigned char out[header_size], const CompiledTrace &trace,
           std::uint64_t micro_ops, std::uint64_t payload_bytes,
           std::uint64_t payload_checksum)
{
    std::memset(out, 0, header_size);
    std::memcpy(out, ctc_magic.data(), ctc_magic.size());
    putLe(out + 8, compiled_trace_version, 4);
    putLe(out + 12, endian_marker, 4);
    putLe(out + 16, trace.source_hash, 8);
    putLe(out + 24, trace.spec_fp, 8);
    putLe(out + 32, micro_ops, 8);
    putLe(out + 40, trace.events, 8);
    putLe(out + 48, trace.track_keys.size(), 8);
    putLe(out + 56, trace.atomic_keys.size(), 8);
    putLe(out + 64, trace.run_len.size(), 8);
    putLe(out + 72, trace.thread_count, 4);
    putLe(out + 80, payload_bytes, 8);
    putLe(out + 88, payload_checksum, 8);
    putLe(out + 96, fnv1a64(out, header_checked), 8);
}

/** Parsed and validated header fields. */
struct Header
{
    std::uint64_t source_hash;
    std::uint64_t spec_fp;
    std::uint64_t micro_ops;
    std::uint64_t events;
    std::uint64_t track_slots;
    std::uint64_t atomic_slots;
    std::uint64_t runs;
    std::uint32_t thread_count;
    std::uint64_t payload_bytes;
    std::uint64_t payload_checksum;
};

Header
parseHeader(const unsigned char *bytes, const std::string &path)
{
    PERSIM_REQUIRE(std::memcmp(bytes, ctc_magic.data(),
                               ctc_magic.size()) == 0,
                   "bad compiled trace magic: " << path);
    const auto version = static_cast<std::uint32_t>(getLe(bytes + 8, 4));
    PERSIM_REQUIRE(version == compiled_trace_version,
                   "unsupported compiled trace version "
                       << version << " (expected "
                       << compiled_trace_version << "): " << path);
    const auto endian = static_cast<std::uint32_t>(getLe(bytes + 12, 4));
    PERSIM_REQUIRE(endian == endian_marker,
                   "compiled trace endianness mismatch: marker 0x"
                       << std::hex << endian
                       << " (artifact written on a different-endian "
                          "host?): "
                       << path);
    const std::uint64_t stored = getLe(bytes + 96, 8);
    const std::uint64_t computed = fnv1a64(bytes, header_checked);
    PERSIM_REQUIRE(stored == computed,
                   "compiled trace header checksum mismatch (stored 0x"
                       << std::hex << stored << ", computed 0x"
                       << computed << "): " << path);

    Header header = {};
    header.source_hash = getLe(bytes + 16, 8);
    header.spec_fp = getLe(bytes + 24, 8);
    header.micro_ops = getLe(bytes + 32, 8);
    header.events = getLe(bytes + 40, 8);
    header.track_slots = getLe(bytes + 48, 8);
    header.atomic_slots = getLe(bytes + 56, 8);
    header.runs = getLe(bytes + 64, 8);
    header.thread_count =
        static_cast<std::uint32_t>(getLe(bytes + 72, 4));
    header.payload_bytes = getLe(bytes + 80, 8);
    header.payload_checksum = getLe(bytes + 88, 8);

    // Reject counts whose layout arithmetic would overflow before any
    // of it is used to form pointers.
    constexpr std::uint64_t row_limit = 1ULL << 48;
    PERSIM_REQUIRE(header.micro_ops < row_limit &&
                       header.runs < row_limit &&
                       header.track_slots < row_limit &&
                       header.atomic_slots < row_limit,
                   "unreasonable compiled trace counts: " << path);
    return header;
}

} // namespace

void
CompiledTrace::buildRuns()
{
    run_len.clear();
    run_kind.clear();
    std::size_t i = 0;
    while (i < kind.size()) {
        std::size_t j = i + 1;
        // Cap runs at u32 range; maximal runs beyond that just split.
        while (j < kind.size() && kind[j] == kind[i] &&
               j - i < 0xffffffffu)
            ++j;
        run_len.push_back(static_cast<std::uint32_t>(j - i));
        run_kind.push_back(kind[i]);
        i = j;
    }
}

CompiledTraceView
CompiledTrace::view() const
{
    CompiledTraceView v;
    v.micro_ops = kind.size();
    v.events = events;
    v.track_slots = track_keys.size();
    v.atomic_slots = atomic_keys.size();
    v.runs = run_len.size();
    v.thread_count = thread_count;
    v.source_hash = source_hash;
    v.spec_fp = spec_fp;
    v.kind = kind.data();
    v.size = size.data();
    v.flags = flags.data();
    v.thread = thread.data();
    v.tslot = tslot.data();
    v.aslot = aslot.data();
    v.addr = addr.data();
    v.value = value.data();
    v.seq = seq.data();
    v.run_len = run_len.data();
    v.run_kind = run_kind.data();
    v.track_keys = track_keys.data();
    v.atomic_keys = atomic_keys.data();
    return v;
}

namespace {

/**
 * Validate every column row of @p view: kind and run_kind bytes are
 * <= @p max_kind, the run lengths partition [0, micro_ops) with
 * matching kinds, and slots are in range or compiled_no_slot. Fatals
 * naming the offending row; @p what names the artifact in messages.
 */
void
validateCompiledView(const CompiledTraceView &view, std::uint8_t max_kind,
                     const std::string &what)
{
    std::uint64_t covered = 0;
    std::uint64_t at = 0;
    for (std::uint64_t r = 0; r < view.runs; ++r) {
        const std::uint32_t len = view.run_len[r];
        PERSIM_REQUIRE(len > 0 && view.micro_ops - covered >= len,
                       "corrupt compiled trace run " << r
                           << ": length " << len << " does not fit the "
                           << view.micro_ops << "-op program: " << what);
        PERSIM_REQUIRE(view.run_kind[r] <= max_kind,
                       "corrupt compiled trace run " << r << ": kind "
                           << unsigned(view.run_kind[r])
                           << " is out of range (max "
                           << unsigned(max_kind) << "): " << what);
        covered += len;
        for (std::uint64_t i = at; i < at + len; ++i)
            PERSIM_REQUIRE(view.kind[i] == view.run_kind[r],
                           "corrupt compiled trace op " << i
                               << ": kind " << unsigned(view.kind[i])
                               << " disagrees with its run's kind "
                               << unsigned(view.run_kind[r]) << ": "
                               << what);
        at += len;
    }
    PERSIM_REQUIRE(covered == view.micro_ops,
                   "corrupt compiled trace: runs cover " << covered
                       << " of " << view.micro_ops << " ops: " << what);

    for (std::uint64_t i = 0; i < view.micro_ops; ++i) {
        PERSIM_REQUIRE(view.kind[i] <= max_kind,
                       "corrupt compiled trace op " << i << ": kind "
                           << unsigned(view.kind[i])
                           << " is out of range (max "
                           << unsigned(max_kind) << "): " << what);
        const std::uint32_t ts = view.tslot[i];
        PERSIM_REQUIRE(ts == compiled_no_slot || ts < view.track_slots,
                       "corrupt compiled trace op " << i
                           << ": tracking slot " << ts
                           << " is out of range (have "
                           << view.track_slots << "): " << what);
        const std::uint32_t as = view.aslot[i];
        PERSIM_REQUIRE(as == compiled_no_slot || as < view.atomic_slots,
                       "corrupt compiled trace op " << i
                           << ": atomic slot " << as
                           << " is out of range (have "
                           << view.atomic_slots << "): " << what);
    }
}

} // namespace

void
writeCompiledTrace(const std::string &path, const CompiledTrace &trace)
{
    requireLittleEndianHost(path);
    const std::uint64_t micro_ops = trace.kind.size();
    PERSIM_REQUIRE(trace.size.size() == micro_ops &&
                       trace.flags.size() == micro_ops &&
                       trace.thread.size() == micro_ops &&
                       trace.tslot.size() == micro_ops &&
                       trace.aslot.size() == micro_ops &&
                       trace.addr.size() == micro_ops &&
                       trace.value.size() == micro_ops &&
                       trace.seq.size() == micro_ops &&
                       trace.run_len.size() == trace.run_kind.size(),
                   "compiled trace columns are ragged: " << path);

    const Layout layout =
        layoutFor(micro_ops, trace.run_len.size(),
                  trace.track_keys.size(), trace.atomic_keys.size());

    // Build the payload in memory: the alignment gaps must be zero
    // bytes (the payload checksum covers them), and one buffered
    // write is faster than thirteen seek-and-write bursts anyway.
    std::vector<unsigned char> payload(
        static_cast<std::size_t>(layout.payload_bytes), 0);
    const void *columns[section_count] = {
        trace.kind.data(),      trace.size.data(),
        trace.flags.data(),     trace.thread.data(),
        trace.tslot.data(),     trace.aslot.data(),
        trace.addr.data(),      trace.value.data(),
        trace.seq.data(),       trace.run_len.data(),
        trace.run_kind.data(),  trace.track_keys.data(),
        trace.atomic_keys.data(),
    };
    for (std::size_t i = 0; i < section_count; ++i)
        if (layout.bytes[i] > 0)
            std::memcpy(payload.data() + layout.offset[i], columns[i],
                        static_cast<std::size_t>(layout.bytes[i]));

    unsigned char header[header_size];
    packHeader(header, trace, micro_ops, layout.payload_bytes,
               fnv1a64(payload.data(), payload.size()));

    std::FILE *file = std::fopen(path.c_str(), "wb");
    PERSIM_REQUIRE(file != nullptr,
                   "cannot open compiled trace for writing: " << path);
    const bool wrote =
        std::fwrite(header, 1, header_size, file) == header_size &&
        std::fwrite(payload.data(), 1, payload.size(), file) ==
            payload.size();
    const bool flushed = std::fflush(file) == 0;
    const bool closed = std::fclose(file) == 0;
    PERSIM_REQUIRE(wrote && flushed && closed,
                   "short write to compiled trace: " << path);
}

MmapCompiledTrace::MmapCompiledTrace(const std::string &path,
                                     std::uint8_t max_kind)
{
    requireLittleEndianHost(path);

    const int fd = ::open(path.c_str(), O_RDONLY);
    PERSIM_REQUIRE(fd >= 0,
                   "cannot open compiled trace for mapping: " << path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        PERSIM_REQUIRE(false, "cannot map compiled trace: not a "
                              "regular file: " << path);
    }
    const auto file_size = static_cast<std::uint64_t>(st.st_size);
    if (file_size < header_size) {
        ::close(fd);
        PERSIM_REQUIRE(false,
                       "compiled trace truncated: file ends at byte "
                           << file_size << " inside the " << header_size
                           << "-byte header: " << path);
    }

    map_size_ = static_cast<std::size_t>(file_size);
    map_ = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    PERSIM_REQUIRE(map_ != MAP_FAILED,
                   "cannot mmap compiled trace: " << path);

    try {
        const auto *base = static_cast<const unsigned char *>(map_);
        const Header header = parseHeader(base, path);
        const Layout layout =
            layoutFor(header.micro_ops, header.runs,
                      header.track_slots, header.atomic_slots);
        PERSIM_REQUIRE(
            header.payload_bytes == layout.payload_bytes,
            "compiled trace header claims " << header.payload_bytes
                << " payload bytes but its counts lay out to "
                << layout.payload_bytes << ": " << path);
        const std::uint64_t expected =
            header_size + layout.payload_bytes;
        PERSIM_REQUIRE(
            file_size == expected,
            "compiled trace truncated: header claims "
                << expected << " bytes but the file ends at byte "
                << file_size << ": " << path);
        const std::uint64_t payload_sum =
            fnv1a64(base + header_size,
                    static_cast<std::size_t>(layout.payload_bytes));
        PERSIM_REQUIRE(payload_sum == header.payload_checksum,
                       "compiled trace payload checksum mismatch "
                       "(stored 0x"
                           << std::hex << header.payload_checksum
                           << ", computed 0x" << payload_sum
                           << "): " << path);

        const unsigned char *payload = base + header_size;
        view_.micro_ops = header.micro_ops;
        view_.events = header.events;
        view_.track_slots = header.track_slots;
        view_.atomic_slots = header.atomic_slots;
        view_.runs = header.runs;
        view_.thread_count = header.thread_count;
        view_.source_hash = header.source_hash;
        view_.spec_fp = header.spec_fp;
        const auto at = [&](std::size_t i) {
            return payload + layout.offset[i];
        };
        view_.kind = reinterpret_cast<const std::uint8_t *>(at(0));
        view_.size = reinterpret_cast<const std::uint8_t *>(at(1));
        view_.flags = reinterpret_cast<const std::uint8_t *>(at(2));
        view_.thread = reinterpret_cast<const std::uint32_t *>(at(3));
        view_.tslot = reinterpret_cast<const std::uint32_t *>(at(4));
        view_.aslot = reinterpret_cast<const std::uint32_t *>(at(5));
        view_.addr = reinterpret_cast<const std::uint64_t *>(at(6));
        view_.value = reinterpret_cast<const std::uint64_t *>(at(7));
        view_.seq = reinterpret_cast<const std::uint64_t *>(at(8));
        view_.run_len = reinterpret_cast<const std::uint32_t *>(at(9));
        view_.run_kind = reinterpret_cast<const std::uint8_t *>(at(10));
        view_.track_keys =
            reinterpret_cast<const std::uint64_t *>(at(11));
        view_.atomic_keys =
            reinterpret_cast<const std::uint64_t *>(at(12));

#ifdef POSIX_MADV_WILLNEED
        (void)::posix_madvise(map_, map_size_, POSIX_MADV_WILLNEED);
#endif
        validateCompiledView(view_, max_kind, path);
    } catch (...) {
        ::munmap(map_, map_size_);
        map_ = nullptr;
        throw;
    }
}

MmapCompiledTrace::~MmapCompiledTrace()
{
    if (map_ != nullptr)
        ::munmap(map_, map_size_);
}

} // namespace persim
