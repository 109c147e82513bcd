/**
 * @file
 * Cross-shard transaction primitives: staging, commit records, and
 * the host-side golden transaction history.
 *
 * A KvTxn stages puts/erases against any keys of a KvRouter group
 * (last write per key wins). Commit is two-phase over the existing
 * persistent-log machinery:
 *
 *  1. *Stage*: with every participant shard's MCS lock held (acquired
 *     in ascending shard order — deadlock-free), capacity is
 *     pre-validated exactly, one commit seq S is drawn from the
 *     group-shared counter, and each mutation is appended to its
 *     shard's journal as a staged record (txn id + S). Staged records
 *     are not redo authority yet: per-shard recovery skips them.
 *  2. *Commit*: a single commit record naming every participant
 *     (shard, LSN) pair is appended to the group journal, ordered
 *     after the staged records (strand conflict re-reads + barrier);
 *     then the transaction's status word flips pending -> committed
 *     with an rmwCas — the volatile publication point — and a second
 *     barrier orders the flip before the table applications that
 *     follow.
 *
 * The *durable* commit point is the commit record itself: recovery
 * treats a transaction as committed iff its commit record validates
 * in the group-journal scan. The status flip is an in-doubt detector
 * — a status word that says committed while the record is unreadable
 * is counted, never silently served (see router.hh's
 * recoverKvRouter).
 *
 * Migration rides the same journal with begin/end records; see
 * KvRouter::migrate.
 */

#ifndef PERSIM_KVSTORE_TXN_HH
#define PERSIM_KVSTORE_TXN_HH

#include <cstdint>
#include <map>
#include <vector>

namespace persim {

/** One (shard, journal offset) participant named by a commit record. */
struct KvTxnParticipant
{
    std::uint64_t shard = 0;
    std::uint64_t lsn = 0; //!< Byte offset in the shard's journal.
};

/** One decoded group-journal record (commit / migration). */
struct KvTxnRecord
{
    static constexpr std::uint64_t kind_commit = 3;
    static constexpr std::uint64_t kind_migrate_begin = 4;
    static constexpr std::uint64_t kind_migrate_end = 5;

    /** Payload size of a migration begin/end record. */
    static constexpr std::uint64_t migrate_bytes = 56;

    std::uint64_t kind = 0;
    std::uint64_t txn = 0; //!< Transaction or migration id (nonzero).
    /**
     * Commit seq. In migration records, the group seq counter as the
     * migration ran: every later write to the partition draws a seq at
     * or above it, every earlier one below it.
     */
    std::uint64_t seq = 0;

    /** Participants, in staging order (commit records only). */
    std::vector<KvTxnParticipant> participants;

    /** Migration fields (begin/end records only). */
    std::uint64_t partition = 0;
    std::uint64_t from_shard = 0;
    std::uint64_t to_shard = 0;
    std::uint64_t moved_keys = 0;

    /** Serialize to a log payload. */
    std::vector<std::uint8_t> encode() const;

    /** Parse a log payload; returns false if malformed. */
    static bool decode(const std::vector<std::uint8_t> &payload,
                       KvTxnRecord &record);
};

/** Outcome of KvRouter::commit. */
enum class KvTxnStatus : std::uint8_t {
    Committed = 0,
    Empty,         //!< No staged mutations; nothing to do.
    TooManyTxns,   //!< Status table exhausted; backpressure.
    TableFull,     //!< Some shard's table cannot take the inserts.
    HeapFull,      //!< Some shard's value heap cannot take the values.
    LogFull,       //!< A shard journal or the group journal is full.
    ValueTooLarge, //!< A staged value exceeds max_value_bytes.
};

/** Human-readable status name. */
const char *kvTxnStatusName(KvTxnStatus status);

/** A multi-key cross-shard transaction, staged host-side. */
class KvTxn
{
  public:
    struct Op
    {
        bool erase = false;
        std::vector<std::uint8_t> value;
    };

    /** Stage a put; the last op staged for a key wins. */
    void
    put(std::uint64_t key, const void *value, std::uint64_t len)
    {
        Op op;
        const auto *bytes = static_cast<const std::uint8_t *>(value);
        op.value.assign(bytes, bytes + len);
        ops_[key] = std::move(op);
    }

    /** Stage an erase; the last op staged for a key wins. */
    void
    erase(std::uint64_t key)
    {
        Op op;
        op.erase = true;
        ops_[key] = std::move(op);
    }

    bool empty() const { return ops_.empty(); }
    std::size_t size() const { return ops_.size(); }

    /** Staged ops by key (deterministic order). */
    const std::map<std::uint64_t, Op> &ops() const { return ops_; }

  private:
    std::map<std::uint64_t, Op> ops_;
};

/** One committed-by-execution transaction, recorded host-side. */
struct KvTxnGolden
{
    std::uint64_t txn = 0;
    std::uint64_t seq = 0; //!< The shared commit seq.
    std::map<std::uint64_t, KvTxn::Op> ops;
};

/** Host-side golden list of every transaction that reached staging. */
using KvTxnGoldenList = std::vector<KvTxnGolden>;

} // namespace persim

#endif // PERSIM_KVSTORE_TXN_HH
