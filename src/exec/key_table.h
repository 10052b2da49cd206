#ifndef UNIQOPT_EXEC_KEY_TABLE_H_
#define UNIQOPT_EXEC_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "types/row.h"

namespace uniqopt {

/// The executor's one hash table: flat open addressing (linear probing)
/// over a row store. Each slot is a (64-bit hash, row ordinal) pair.
/// Keys are hashed and compared in place on their columns, so no
/// projected key Row and no per-entry node is ever allocated.
///
/// Key equality is the paper's `=!` (Value::NullSafeEquals): NULL
/// matches NULL, and INTEGER 1 matches DOUBLE 1.0 exactly as
/// Value::Compare says (Value::Hash hashes them alike). Joins under
/// 3VL `=` drop NULL keys before building and probing (HasNull).
///
/// Two ways to fill it:
///  - `Build` (multimap, hash joins): bulk-indexes rows under hashes the
///    caller computed; rows with equal keys chain in insertion order,
///    walked with `Find` then `Next`.
///  - `FindOrInsert` (set: DISTINCT, GROUP BY, set operations): one row
///    per `=!`-distinct key; the table doubles as it fills.
/// A table is filled one way or the other, never both.
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// `key_columns`: where the key sits in every stored row.
  explicit KeyTable(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)) {}

  /// Hash of `row`'s columns `cols` (in that order), consistent with
  /// `=!`: rows whose key columns are pairwise `=!`-equal hash alike.
  static uint64_t HashKey(const Row& row, const std::vector<size_t>& cols) {
    size_t seed = 0x345678;
    for (size_t c : cols) HashCombine(&seed, row[c].Hash());
    return Mix(seed);
  }

  /// Whether any of `row`'s columns `cols` is NULL.
  static bool HasNull(const Row& row, const std::vector<size_t>& cols) {
    for (size_t c : cols) {
      if (row[c].is_null()) return true;
    }
    return false;
  }

  /// Multimap build: replaces the contents with `rows`, indexing
  /// rows[i] under hashes[i]. Sized once from the row count.
  void Build(std::vector<Row> rows, const std::vector<uint64_t>& hashes);

  /// Set insert: the ordinal of the stored row whose key is `=!`-equal
  /// to `probe`'s columns `probe_cols`, and false; or, when there is
  /// none, stores `make_row()` (whose key columns must equal the
  /// probe's) and returns its ordinal and true.
  template <typename MakeRow>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, const Row& probe,
                                         const std::vector<size_t>& probe_cols,
                                         MakeRow&& make_row) {
    if ((rows_.size() + 1) * 2 > slots_.size()) Grow();
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.ordinal == kNone) {
        UNIQOPT_DCHECK(rows_.size() < kNone);
        const auto ordinal = static_cast<uint32_t>(rows_.size());
        rows_.push_back(make_row());
        slot = Slot{hash, ordinal};
        return {ordinal, true};
      }
      if (slot.hash == hash && KeyEquals(slot.ordinal, probe, probe_cols)) {
        return {slot.ordinal, false};
      }
    }
  }

  /// The first stored row whose key is `=!`-equal to `probe`'s columns
  /// `probe_cols`, or kNone. Further equal-key rows follow via Next.
  uint32_t Find(uint64_t hash, const Row& probe,
                const std::vector<size_t>& probe_cols) const {
    if (slots_.empty()) return kNone;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.ordinal == kNone) return kNone;
      if (slot.hash == hash && KeyEquals(slot.ordinal, probe, probe_cols)) {
        return slot.ordinal;
      }
    }
  }

  /// The next row with the same key as `ordinal` (Build only), or kNone.
  uint32_t Next(uint32_t ordinal) const {
    return next_.empty() ? kNone : next_[ordinal];
  }

  /// Calls fn(hash, ordinal) once per distinct key (the first row of its
  /// chain), in slot order. Merges use it to reuse stored hashes.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.ordinal != kNone) fn(slot.hash, slot.ordinal);
    }
  }

  const Row& row(uint32_t ordinal) const { return rows_[ordinal]; }
  /// The row store, in ordinal (insertion) order.
  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Moves one stored row out. The table must not be probed afterwards
  /// (merges drain a worker's table this way).
  Row TakeRow(uint32_t ordinal) { return std::move(rows_[ordinal]); }
  /// Moves the row store out and empties the table.
  std::vector<Row> TakeRows();

  /// Empties the table and releases its memory; the key columns stay.
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t ordinal = kNone;
  };

  /// murmur3's 64-bit finalizer: HashCombine over Value::Hash leaves
  /// integer keys nearly unmixed, and slots are picked by the low bits.
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= UINT64_C(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h *= UINT64_C(0xc4ceb9fe1a85ec53);
    h ^= h >> 33;
    return h;
  }

  bool KeyEquals(uint32_t ordinal, const Row& probe,
                 const std::vector<size_t>& probe_cols) const {
    const Row& stored = rows_[ordinal];
    for (size_t k = 0; k < key_columns_.size(); ++k) {
      if (!stored[key_columns_[k]].NullSafeEquals(probe[probe_cols[k]])) {
        return false;
      }
    }
    return true;
  }

  /// Re-slots every key into a table of `capacity` slots (a power of 2).
  void Rehash(size_t capacity);
  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  std::vector<size_t> key_columns_;
  std::vector<Row> rows_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  /// Build only: next_[r] is the next row with r's key, or kNone.
  std::vector<uint32_t> next_;
};

/// Columns 0..n-1: the key layout of a table whose whole row is the key.
std::vector<size_t> AllColumns(size_t n);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_KEY_TABLE_H_
