#include "exec/key_table.h"

namespace uniqopt {

namespace {

/// Slots for `keys` entries at a load factor of at most 1/2.
size_t CapacityFor(size_t keys) {
  size_t capacity = 16;
  while (capacity < keys * 2) capacity *= 2;
  return capacity;
}

}  // namespace

void KeyTable::Build(std::vector<Row> rows,
                     const std::vector<uint64_t>& hashes) {
  UNIQOPT_DCHECK(rows.size() == hashes.size());
  UNIQOPT_DCHECK(rows.size() < kNone);
  rows_ = std::move(rows);
  next_.assign(rows_.size(), kNone);
  slots_.assign(CapacityFor(rows_.size()), Slot{});
  mask_ = slots_.size() - 1;
  // Rows go in back to front and each one becomes the head of its key's
  // chain, so every chain walks its rows in insertion order.
  for (size_t r = rows_.size(); r-- > 0;) {
    const uint64_t hash = hashes[r];
    const auto ordinal = static_cast<uint32_t>(r);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.ordinal == kNone) {
        slot = Slot{hash, ordinal};
        break;
      }
      if (slot.hash == hash &&
          KeyEquals(slot.ordinal, rows_[r], key_columns_)) {
        next_[r] = slot.ordinal;
        slot.ordinal = ordinal;
        break;
      }
    }
  }
}

void KeyTable::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.ordinal == kNone) continue;
    size_t i = slot.hash & mask_;
    while (slots_[i].ordinal != kNone) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

std::vector<Row> KeyTable::TakeRows() {
  std::vector<Row> rows = std::move(rows_);
  Clear();
  return rows;
}

void KeyTable::Clear() {
  rows_ = std::vector<Row>();
  slots_ = std::vector<Slot>();
  next_ = std::vector<uint32_t>();
  mask_ = 0;
}

std::vector<size_t> AllColumns(size_t n) {
  std::vector<size_t> columns(n);
  for (size_t i = 0; i < n; ++i) columns[i] = i;
  return columns;
}

}  // namespace uniqopt
