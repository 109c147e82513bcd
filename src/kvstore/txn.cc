#include "kvstore/txn.hh"

namespace persim {

const char *
kvTxnStatusName(KvTxnStatus status)
{
    switch (status) {
      case KvTxnStatus::Committed:
        return "committed";
      case KvTxnStatus::Empty:
        return "empty";
      case KvTxnStatus::TooManyTxns:
        return "too-many-txns";
      case KvTxnStatus::TableFull:
        return "table-full";
      case KvTxnStatus::HeapFull:
        return "heap-full";
      case KvTxnStatus::LogFull:
        return "log-full";
      case KvTxnStatus::ValueTooLarge:
        return "value-too-large";
    }
    return "unknown";
}

namespace {

void
putWord(std::vector<std::uint8_t> &payload, std::size_t off,
        std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        payload[off + i] = (v >> (8 * i)) & 0xff;
}

std::uint64_t
getWord(const std::vector<std::uint8_t> &payload, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(payload[off + i]) << (8 * i);
    return v;
}

} // namespace

// Commit:        [kind][txn][seq][count] then count x [shard][lsn].
// Migrate begin/end: [kind][txn][partition][from][to][moved_keys][seq].
std::vector<std::uint8_t>
KvTxnRecord::encode() const
{
    if (kind == kind_commit) {
        std::vector<std::uint8_t> payload(32 +
                                          16 * participants.size());
        putWord(payload, 0, kind);
        putWord(payload, 8, txn);
        putWord(payload, 16, seq);
        putWord(payload, 24, participants.size());
        for (std::size_t i = 0; i < participants.size(); ++i) {
            putWord(payload, 32 + 16 * i, participants[i].shard);
            putWord(payload, 40 + 16 * i, participants[i].lsn);
        }
        return payload;
    }
    std::vector<std::uint8_t> payload(migrate_bytes);
    putWord(payload, 0, kind);
    putWord(payload, 8, txn);
    putWord(payload, 16, partition);
    putWord(payload, 24, from_shard);
    putWord(payload, 32, to_shard);
    putWord(payload, 40, moved_keys);
    putWord(payload, 48, seq);
    return payload;
}

bool
KvTxnRecord::decode(const std::vector<std::uint8_t> &payload,
                    KvTxnRecord &record)
{
    if (payload.size() < 32)
        return false;
    record = KvTxnRecord();
    record.kind = getWord(payload, 0);
    record.txn = getWord(payload, 8);
    if (record.txn == 0)
        return false;
    if (record.kind == kind_commit) {
        record.seq = getWord(payload, 16);
        const std::uint64_t count = getWord(payload, 24);
        if (record.seq == 0 || count == 0 ||
            payload.size() != 32 + 16 * count)
            return false;
        record.participants.resize(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            record.participants[i].shard = getWord(payload, 32 + 16 * i);
            record.participants[i].lsn = getWord(payload, 40 + 16 * i);
        }
        return true;
    }
    if (record.kind != kind_migrate_begin &&
        record.kind != kind_migrate_end)
        return false;
    if (payload.size() != migrate_bytes)
        return false;
    record.partition = getWord(payload, 16);
    record.from_shard = getWord(payload, 24);
    record.to_shard = getWord(payload, 32);
    record.moved_keys = getWord(payload, 40);
    record.seq = getWord(payload, 48);
    return record.from_shard != record.to_shard;
}

} // namespace persim
