/**
 * @file
 * Compiled trace container (DESIGN.md Section 17).
 *
 * A compiled trace persists the output of segment prep — the decoded,
 * cache-line-split, scope-filtered, slot-interned micro-op program a
 * replay would otherwise rebuild from the raw event stream on every
 * run — as an mmap-able artifact the timing engine executes straight
 * out of the mapping.
 *
 * Layout (".ctc", little-endian, 128-byte header):
 *
 *   offset size field
 *        0    8 magic "PSIMCTC1"
 *        8    4 version (currently 1)
 *       12    4 endianness marker 0x01020304 (stored LE; a
 *              byte-swapped artifact reads back 0x04030201)
 *       16    8 source_hash   fnv1a64 of the source trace's raw
 *              32-byte event records — stale-artifact gate
 *       24    8 spec_fp       fingerprint of the CompileSpec the
 *              micro-ops were compiled under (persistency layer)
 *       32    8 micro_ops     rows in each micro-op column
 *       40    8 events        raw events the program was compiled
 *              from (includes kinds that compile to nothing)
 *       48    8 track_slots   entries in the track_keys table
 *       56    8 atomic_slots  entries in the atomic_keys table
 *       64    8 runs          rows in the run-length dispatch index
 *       72    4 thread_count
 *       76    4 reserved (0)
 *       80    8 payload_bytes (64-byte-aligned section area size)
 *       88    8 payload_checksum  fnv1a64 of the payload area
 *       96    8 header_checksum   fnv1a64 of bytes [0, 96)
 *      104   24 zero padding to 128
 *
 * The payload is a fixed-order sequence of struct-of-arrays columns,
 * each starting on a 64-byte boundary (the header is 128 bytes, so
 * in-file alignment equals in-memory alignment of the mapping):
 *
 *   kind u8[n] | size u8[n] | flags u8[n] | thread u32[n]
 *   | tslot u32[n] | aslot u32[n] | addr u64[n] | value u64[n]
 *   | seq u64[n] | run_len u32[r] | run_kind u8[r]
 *   | track_keys u64[t] | atomic_keys u64[a]
 *
 * flags bit 0 is the micro-op's is_write, bit 1 is "address is
 * persistent" (precomputed so the hot loop never recomputes range
 * membership). The run index partitions [0, micro_ops) into maximal
 * same-kind runs so the executor dispatches per run, not per op.
 *
 * Like MmapTraceReader, the reader requires a little-endian host and
 * validate everything up front — magic, version, endianness, both
 * checksums, file size against the header's counts (reporting the
 * offending byte offset on truncation), and every column row (kind
 * bytes, slot bounds, run-length partition) — so consumers can trust
 * the views without per-op checks.
 */

#ifndef PERSIM_MEMTRACE_COMPILED_TRACE_HH
#define PERSIM_MEMTRACE_COMPILED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace persim {

/** Container format version. */
constexpr std::uint32_t compiled_trace_version = 1;

/** tslot/aslot sentinel: the op has no slot in that bank. */
constexpr std::uint32_t compiled_no_slot = ~0u;

/** flags bit 0: the micro-op is a write. */
constexpr std::uint8_t compiled_flag_write = 1u;
/** flags bit 1: the micro-op's address is persistent. */
constexpr std::uint8_t compiled_flag_persistent = 2u;

/**
 * Zero-copy view of one compiled trace: column pointers plus the
 * header facts. Valid only while the backing storage (a mapping or a
 * CompiledTrace) is alive.
 */
struct CompiledTraceView
{
    std::uint64_t micro_ops = 0;
    std::uint64_t events = 0;
    std::uint64_t track_slots = 0;
    std::uint64_t atomic_slots = 0;
    std::uint64_t runs = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t source_hash = 0;
    std::uint64_t spec_fp = 0;

    const std::uint8_t *kind = nullptr;
    const std::uint8_t *size = nullptr;
    const std::uint8_t *flags = nullptr;
    const std::uint32_t *thread = nullptr;
    const std::uint32_t *tslot = nullptr;
    const std::uint32_t *aslot = nullptr;
    const std::uint64_t *addr = nullptr;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *seq = nullptr;
    const std::uint32_t *run_len = nullptr;
    const std::uint8_t *run_kind = nullptr;
    const std::uint64_t *track_keys = nullptr;
    const std::uint64_t *atomic_keys = nullptr;
};

/** Owning compiled trace: the columns as growable vectors. */
struct CompiledTrace
{
    std::uint64_t events = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t source_hash = 0;
    std::uint64_t spec_fp = 0;

    std::vector<std::uint8_t> kind;
    std::vector<std::uint8_t> size;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint32_t> thread;
    std::vector<std::uint32_t> tslot;
    std::vector<std::uint32_t> aslot;
    std::vector<std::uint64_t> addr;
    std::vector<std::uint64_t> value;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint32_t> run_len;
    std::vector<std::uint8_t> run_kind;
    std::vector<std::uint64_t> track_keys;
    std::vector<std::uint64_t> atomic_keys;

    /** Rebuild the run index from the kind column. */
    void buildRuns();

    /** A view over this object's storage. */
    CompiledTraceView view() const;
};

/**
 * Write @p trace to @p path in the .ctc layout above. Fatals on IO
 * errors and (like MmapTraceReader) on a big-endian host.
 */
void writeCompiledTrace(const std::string &path,
                        const CompiledTrace &trace);

/**
 * Maps a .ctc file and hands out a zero-copy CompiledTraceView.
 * Fatals on any validation failure; truncation errors name the byte
 * offset where the file ended short. @p max_kind bounds the kind
 * bytes accepted (the persistency layer passes its micro-op limit).
 */
class MmapCompiledTrace
{
  public:
    explicit MmapCompiledTrace(const std::string &path,
                               std::uint8_t max_kind = 0xff);
    ~MmapCompiledTrace();

    MmapCompiledTrace(const MmapCompiledTrace &) = delete;
    MmapCompiledTrace &operator=(const MmapCompiledTrace &) = delete;

    const CompiledTraceView &view() const { return view_; }

  private:
    CompiledTraceView view_;
    void *map_ = nullptr;
    std::size_t map_size_ = 0;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_COMPILED_TRACE_HH
