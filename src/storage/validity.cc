// Copyright (c) 2026 The DeltaMerge Authors.

#include "storage/validity.h"

#include <algorithm>
#include <cstddef>

namespace deltamerge {

uint64_t ValidityVector::Append(uint64_t n) {
  const uint64_t first = size_;
  if (n == 0) return first;
  size_ += n;
  valid_count_ += n;
  const uint64_t needed_words = (size_ + 63) >> 6;
  if (words_.size() < needed_words) {
    words_.resize(needed_words, 0);
  }
  // Rows [first, size_): the head word keeps the rows below `first`, every
  // later word holds only new rows, and the tail word's bits at or above
  // size_ stay clear.
  const uint64_t head = first >> 6;
  const uint64_t tail = (size_ - 1) >> 6;
  const uint64_t head_bits = ~uint64_t{0} << (first & 63);
  const uint64_t tail_bits = ~uint64_t{0} >> (63 - ((size_ - 1) & 63));
  if (head == tail) {
    words_[head] |= head_bits & tail_bits;
    return first;
  }
  words_[head] |= head_bits;
  std::fill(words_.begin() + static_cast<ptrdiff_t>(head + 1),
            words_.begin() + static_cast<ptrdiff_t>(tail), ~uint64_t{0});
  words_[tail] = tail_bits;
  return first;
}

void ValidityVector::Invalidate(uint64_t row, uint64_t ts) {
  DM_DCHECK(row < size_);
  uint64_t& word = words_[row >> 6];
  const uint64_t mask = uint64_t{1} << (row & 63);
  if (word & mask) {
    word &= ~mask;
    --valid_count_;
    DM_DCHECK(tombstones_.empty() || tombstones_.back().ts <= ts);
    inv_ts_by_row_.emplace(row, ts);
    tombstones_.push_back(Tombstone{row, ts});
  }
}

bool ValidityVector::IsValidAtTs(uint64_t row, uint64_t read_ts) const {
  if (IsValid(row)) return true;
  // The row is invalid now; it was still alive at `read_ts` iff its (unique)
  // invalidation committed after it. A pruned (absent) entry committed at or
  // below every live read timestamp, so "invalid" is the right answer.
  const auto it = inv_ts_by_row_.find(row);
  return it != inv_ts_by_row_.end() && it->second > read_ts;
}

void ValidityVector::PruneTombstones() {
  tombstones_.clear();
  inv_ts_by_row_.clear();
}

void ValidityVector::PruneTombstonesBefore(uint64_t limit_ts) {
  size_t drop = 0;
  while (drop < tombstones_.size() && tombstones_[drop].ts <= limit_ts) {
    inv_ts_by_row_.erase(tombstones_[drop].row);
    ++drop;
  }
  tombstones_.erase(tombstones_.begin(),
                    tombstones_.begin() + static_cast<ptrdiff_t>(drop));
}

std::vector<uint64_t> ValidityVector::CopyWordsPrefix(uint64_t rows) const {
  DM_CHECK_MSG(rows <= size_, "validity prefix beyond vector size");
  const uint64_t nwords = (rows + 63) >> 6;
  std::vector<uint64_t> out(words_.begin(),
                            words_.begin() + static_cast<ptrdiff_t>(nwords));
  if ((rows & 63) != 0 && !out.empty()) {
    out.back() &= (uint64_t{1} << (rows & 63)) - 1;
  }
  return out;
}

std::vector<uint64_t> ValidityVector::CopyWordsAtTs(uint64_t rows,
                                                    uint64_t read_ts) const {
  std::vector<uint64_t> out = CopyWordsPrefix(rows);
  // Invalidation timestamps are monotone (commit order), so the entries to
  // resurrect — committed after read_ts — form a suffix of the log. A ts-0
  // entry is the sentinel ("invalid at every read timestamp") and never
  // qualifies, matching IsValidAtTs.
  auto it = std::lower_bound(tombstones_.begin(), tombstones_.end(), read_ts,
                             [](const Tombstone& t, uint64_t ts) {
                               return t.ts <= ts;
                             });
  for (; it != tombstones_.end(); ++it) {
    if (it->row < rows) out[it->row >> 6] |= uint64_t{1} << (it->row & 63);
  }
  return out;
}

uint64_t ValidityVector::CountValidPrefix(uint64_t rows) const {
  DM_CHECK_MSG(rows <= size_, "validity prefix beyond vector size");
  uint64_t n = 0;
  const uint64_t full_words = rows >> 6;
  for (uint64_t w = 0; w < full_words; ++w) {
    n += static_cast<uint64_t>(__builtin_popcountll(words_[w]));
  }
  if ((rows & 63) != 0) {
    const uint64_t mask = (uint64_t{1} << (rows & 63)) - 1;
    n += static_cast<uint64_t>(__builtin_popcountll(words_[full_words] & mask));
  }
  return n;
}

ValidityVector ValidityVector::FromWords(std::vector<uint64_t> words,
                                         uint64_t rows) {
  DM_CHECK_MSG(words.size() >= ((rows + 63) >> 6),
               "validity words do not cover the row count");
  ValidityVector v;
  v.words_ = std::move(words);
  v.size_ = rows;
  // Clear any stray bits beyond `rows` so valid_count_ and IsValid agree.
  if ((rows & 63) != 0) {
    v.words_[rows >> 6] &= (uint64_t{1} << (rows & 63)) - 1;
  }
  v.valid_count_ = v.CountValidPrefix(rows);
  return v;
}

void ValidityVector::Clear() {
  words_.clear();
  size_ = 0;
  valid_count_ = 0;
  tombstones_.clear();
  inv_ts_by_row_.clear();
}

}  // namespace deltamerge
