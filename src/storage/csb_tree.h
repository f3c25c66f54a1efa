// Copyright (c) 2026 The DeltaMerge Authors.
// CsbTree<W>: a Cache-Sensitive B+ tree (Rao & Ross, SIGMOD 2000 [24]) over
// the unique uncompressed values of a delta partition.
//
// The paper maintains, per column, "a CSB+ tree with all the unique
// uncompressed values of the delta partition ... Each value in the tree also
// stores a pointer to the list of tuple ids where the value was inserted"
// (§3, §4.1). The tree provides O(log) inserts/lookups and — critical for
// merge Step 1(a) — an in-order traversal that yields the delta dictionary
// U_D already sorted, in O(|U_D|).
//
// CSB+ layout: every node occupies exactly one cache line; all children of an
// internal node live in one contiguous "node group", so the parent stores a
// single first-child index instead of per-child pointers, roughly doubling
// fan-out relative to a plain B+ tree. The cost is that growing a group
// (on a child split) copies the whole group; superseded groups are abandoned
// inside the arena until Clear(). This matches the paper's observation that
// the tree consumes ≈2x the memory of the raw values (§6.1), and is cheap
// because a delta tree only lives until the next merge.
//
// Values equal to an internal separator key route to the right child
// (separators are the first key of the right sibling at split time).
//
// Batch inserts (InsertBatch) sort the batch's (value, tuple id) pairs once,
// then either build an empty tree bottom-up — full leaves, full internal
// nodes, every level one contiguous run of groups — or descend a non-empty
// tree once per distinct value and append that value's whole run of tuple
// ids. Either way each postings list stays in insertion order, so a batch
// leaves the same keys and postings as inserting its values one by one.
//
// Thread-safety: none. A delta partition has a single writer; the merge reads
// a frozen tree.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "storage/radix_sort.h"
#include "util/fixed_value.h"
#include "util/macros.h"
#include "util/thread_annotations.h"

namespace deltamerge {

namespace csb_detail {

/// Max separator keys in an internal node: header is 8 bytes
/// (first_child + count + padding), the rest of the line holds keys.
constexpr size_t InternalKeyCapacity(size_t value_width) {
  return (kCacheLineSize - 8) / value_width;
}

/// Max entries in a leaf: header 2 bytes padded to the key alignment, then
/// k keys and k postings-list ids must fit in the line.
constexpr size_t LeafKeyCapacity(size_t value_width) {
  const size_t key_align = value_width == 4 ? 4 : 8;
  const size_t keys_offset = key_align;  // count:uint16 padded up
  size_t k = 0;
  while (keys_offset + (k + 1) * value_width + (k + 1) * sizeof(uint32_t) <=
         kCacheLineSize) {
    ++k;
  }
  return k;
}

}  // namespace csb_detail

/// Iterates the tuple ids recorded for one unique value, in insertion order.
class PostingsCursor {
 public:
  PostingsCursor(const uint32_t* tids, const uint32_t* nexts, uint32_t head)
      : tids_(tids), nexts_(nexts), cur_(head) {}

  bool Done() const { return cur_ == UINT32_MAX; }
  uint32_t TupleId() const { return tids_[cur_]; }
  void Advance() { cur_ = nexts_[cur_]; }

 private:
  const uint32_t* tids_;
  const uint32_t* nexts_;
  uint32_t cur_;
};

template <size_t W>
class CsbTree {
 public:
  using Value = FixedValue<W>;

  static constexpr size_t kInternalKeys = csb_detail::InternalKeyCapacity(W);
  static constexpr size_t kLeafKeys = csb_detail::LeafKeyCapacity(W);
  static constexpr uint32_t kNil = UINT32_MAX;

  CsbTree() { Clear(); }

  DM_DISALLOW_COPY(CsbTree);
  CsbTree(CsbTree&&) noexcept = default;
  CsbTree& operator=(CsbTree&&) noexcept = default;

  /// Records that `v` was inserted at tuple position `tuple_id`. Creates the
  /// key if new, else appends to its postings list.
  void Insert(const Value& v, uint32_t tuple_id) {
    const uint32_t link = static_cast<uint32_t>(link_tids_.size());
    link_tids_.push_back(tuple_id);
    link_nexts_.push_back(kNil);
    InsertChain(v, PList{link, link, 1});
    ++total_tuples_;
  }

  /// Records values[i] at tuple position first_tid + i for every i: the same
  /// keys and postings as calling Insert(values[i], first_tid + i) for i in
  /// order. Sorts the batch once (unless already ascending), then bulk-loads
  /// an empty tree or descends once per distinct value of a non-empty one.
  void InsertBatch(std::span<const Value> values, uint32_t first_tid) {
    if (values.empty()) return;
    DM_CHECK_MSG(values.size() - 1 <= UINT32_MAX - first_tid,
                 "batch tuple ids overflow 32 bits");
    const uint32_t n = static_cast<uint32_t>(values.size());
    if (std::is_sorted(values.begin(), values.end())) {
      InsertSorted(
          n, [&](uint32_t i) -> const Value& { return values[i]; },
          [&](uint32_t i) { return first_tid + i; });
      return;
    }
    const std::unique_ptr<ValueTid<W>[]> sorted =
        RadixSortByValue(values, first_tid);
    InsertSorted(
        n, [&](uint32_t i) -> const Value& { return sorted[i].value; },
        [&](uint32_t i) { return sorted[i].tid; });
  }

  /// Number of distinct keys (|U_D|).
  uint64_t unique_keys() const { return unique_keys_; }
  /// Number of inserted tuples (N_D).
  uint64_t total_tuples() const { return total_tuples_; }
  int height() const { return height_; }

  /// In-order traversal: calls fn(value, postings_cursor) for every distinct
  /// key in ascending order. This is merge Step 1(a)'s linear dictionary
  /// extraction.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    if (unique_keys_ == 0) return;
    Walk(root_, 0, fn);
  }

  /// Traversal restricted to keys in [lo, hi], pruned via separators.
  template <typename Fn>
  void ForEachInRange(const Value& lo, const Value& hi, Fn&& fn) const {
    if (unique_keys_ == 0 || hi < lo) return;
    WalkRange(root_, 0, lo, hi, fn);
  }

  /// Postings for `v`, or a Done() cursor if absent.
  PostingsCursor Find(const Value& v) const {
    if (unique_keys_ == 0) return PostingsCursor(nullptr, nullptr, kNil);
    uint32_t node = root_;
    for (int depth = 0; depth < height_ - 1; ++depth) {
      const Internal& in = nodes_[node].internal;
      node = in.first_child + ChildSlot(in, v);
    }
    const Leaf& leaf = nodes_[node].leaf;
    const int pos = LeafLowerBound(leaf, v);
    if (pos < leaf.count && leaf.keys[pos] == v) {
      return MakeCursor(leaf.postings[pos]);
    }
    return PostingsCursor(nullptr, nullptr, kNil);
  }

  bool Contains(const Value& v) const { return !Find(v).Done(); }

  /// Occurrence count of `v` (postings length) without walking the list.
  uint32_t CountOf(const Value& v) const {
    if (unique_keys_ == 0) return 0;
    uint32_t node = root_;
    for (int depth = 0; depth < height_ - 1; ++depth) {
      const Internal& in = nodes_[node].internal;
      node = in.first_child + ChildSlot(in, v);
    }
    const Leaf& leaf = nodes_[node].leaf;
    const int pos = LeafLowerBound(leaf, v);
    if (pos < leaf.count && leaf.keys[pos] == v) {
      return lists_[leaf.postings[pos]].count;
    }
    return 0;
  }

  /// Arena bytes currently allocated (nodes incl. abandoned groups, postings).
  size_t memory_bytes() const {
    return nodes_.size() * sizeof(Node) + link_tids_.size() * 8 +
           lists_.size() * sizeof(PList);
  }

  /// Bytes in live (reachable) nodes only; the difference to memory_bytes()
  /// is group-copy garbage.
  size_t live_node_bytes() const {
    if (unique_keys_ == 0) return 0;
    return CountLive(root_, 0) * sizeof(Node);
  }

  /// Resets to an empty tree, releasing all arenas.
  void Clear() {
    nodes_.clear();
    link_tids_.clear();
    link_nexts_.clear();
    lists_.clear();
    unique_keys_ = 0;
    total_tuples_ = 0;
    height_ = 1;
    root_ = AllocGroup(1);
    nodes_[root_].leaf.count = 0;
  }

 private:
  struct Internal {
    uint32_t first_child;
    uint16_t count;  // number of separator keys; children = count + 1
    Value keys[kInternalKeys];
  };
  struct Leaf {
    uint16_t count;
    Value keys[kLeafKeys];
    uint32_t postings[kLeafKeys];
  };
  union DM_CACHELINE_ALIGNED Node {
    Internal internal;
    Leaf leaf;
  };
  static_assert(sizeof(Internal) <= kCacheLineSize);
  static_assert(sizeof(Leaf) <= kCacheLineSize);
  static_assert(sizeof(Node) == kCacheLineSize);

  /// Postings list head/tail/length; tuple ids chain through link_nexts_.
  /// Also names a chain of fresh links not yet attached to any key.
  struct PList {
    uint32_t head;
    uint32_t tail;
    uint32_t count;
  };

  /// Keys per bulk-loaded leaf and children per bulk-loaded internal node:
  /// full. A batch-built delta is mostly frozen and merged as it stands,
  /// and a later insert that lands in a full node splits it as usual.
  static constexpr size_t kBulkLeafFill = kLeafKeys;
  static constexpr size_t kBulkFanout = kInternalKeys + 1;

  struct Split {
    Value separator;
    Node left;
    Node right;
  };

  /// Appends `n` fresh nodes and returns the index of the first. Never
  /// shrinks; references into nodes_ are invalidated.
  uint32_t AllocGroup(uint32_t n) {
    const uint32_t first = static_cast<uint32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + n);
    return first;
  }

  PostingsCursor MakeCursor(uint32_t list_id) const {
    return PostingsCursor(link_tids_.data(), link_nexts_.data(),
                          lists_[list_id].head);
  }

  uint32_t NewPList(const PList& chain) {
    lists_.push_back(chain);
    return static_cast<uint32_t>(lists_.size() - 1);
  }

  void AppendPList(uint32_t list_id, const PList& chain) {
    PList& pl = lists_[list_id];
    link_nexts_[pl.tail] = chain.head;
    pl.tail = chain.tail;
    pl.count += chain.count;
  }

  /// Inserts key `v` with the postings `chain`, or appends `chain` to `v`'s
  /// postings if the key exists. One root-to-leaf descent.
  void InsertChain(const Value& v, const PList& chain) {
    Split split;
    if (InsertRec(root_, 0, v, chain, &split)) {
      // Root split: the two halves become a contiguous group under a new root.
      const uint32_t group = AllocGroup(2);
      nodes_[group] = split.left;
      nodes_[group + 1] = split.right;
      const uint32_t new_root = AllocGroup(1);
      Node& r = nodes_[new_root];
      r.internal.first_child = group;
      r.internal.count = 1;
      r.internal.keys[0] = split.separator;
      root_ = new_root;
      ++height_;
    }
  }

  /// Inserts n (value, tuple id) pairs given in ascending value order (ties
  /// in insertion order). Each run of equal values becomes one chain of
  /// consecutive links; an empty tree is then built bottom-up from the
  /// chains, a non-empty one takes one InsertChain per chain.
  template <typename ValueAt, typename TidAt>
  void InsertSorted(uint32_t n, ValueAt&& value_at, TidAt&& tid_at) {
    const uint32_t base = static_cast<uint32_t>(link_tids_.size());
    link_tids_.resize(base + static_cast<size_t>(n));
    link_nexts_.resize(base + static_cast<size_t>(n));
    std::vector<uint32_t> run_ends;  // the last position of each run
    for (uint32_t i = 0; i < n; ++i) {
      link_tids_[base + i] = tid_at(i);
      const bool run_end = i + 1 == n || !(value_at(i + 1) == value_at(i));
      link_nexts_[base + i] = run_end ? kNil : base + i + 1;
      if (run_end) run_ends.push_back(i);
    }
    const bool bulk = unique_keys_ == 0;
    if (bulk) lists_.reserve(run_ends.size());
    uint32_t run_start = 0;
    for (const uint32_t run_end : run_ends) {
      const PList chain{base + run_start, base + run_end,
                        run_end + 1 - run_start};
      if (bulk) {
        lists_.push_back(chain);
      } else {
        InsertChain(value_at(run_end), chain);
      }
      run_start = run_end + 1;
    }
    if (bulk) {
      BulkLoad(run_ends.size(), [&](uint64_t k) -> const Value& {
        return value_at(run_ends[k]);
      });
    }
    total_tuples_ += n;
  }

  /// Replaces the empty tree by one holding the u distinct ascending keys
  /// key_at(0..u-1), key k owning postings list k. Leaves are filled to
  /// kBulkLeafFill and internal nodes to kBulkFanout children, keys spread
  /// evenly so no node is left nearly empty. Each level is one contiguous
  /// block of nodes, so every parent's children already form the
  /// contiguous group CSB+ requires.
  template <typename KeyAt>
  void BulkLoad(uint64_t u, KeyAt&& key_at) {
    DM_DCHECK(unique_keys_ == 0 && u > 0 && lists_.size() == u);
    uint64_t level_nodes = (u + kBulkLeafFill - 1) / kBulkLeafFill;
    nodes_.clear();
    uint32_t level_first = AllocGroup(static_cast<uint32_t>(level_nodes));
    // mins[j]: the smallest key under node j of the level last built.
    std::vector<Value> mins(level_nodes);
    for (uint64_t j = 0; j < level_nodes; ++j) {
      const uint64_t lo = u * j / level_nodes;
      const uint64_t hi = u * (j + 1) / level_nodes;
      Leaf& leaf = nodes_[level_first + j].leaf;
      leaf.count = static_cast<uint16_t>(hi - lo);
      for (uint64_t k = lo; k < hi; ++k) {
        leaf.keys[k - lo] = key_at(k);
        leaf.postings[k - lo] = static_cast<uint32_t>(k);
      }
      mins[j] = leaf.keys[0];
    }
    height_ = 1;
    while (level_nodes > 1) {
      const uint64_t parents = (level_nodes + kBulkFanout - 1) / kBulkFanout;
      const uint32_t parent_first = AllocGroup(static_cast<uint32_t>(parents));
      for (uint64_t p = 0; p < parents; ++p) {
        const uint64_t c0 = level_nodes * p / parents;
        const uint64_t c1 = level_nodes * (p + 1) / parents;
        Internal& in = nodes_[parent_first + p].internal;
        in.first_child = level_first + static_cast<uint32_t>(c0);
        in.count = static_cast<uint16_t>(c1 - c0 - 1);
        for (uint64_t c = c0 + 1; c < c1; ++c) in.keys[c - c0 - 1] = mins[c];
        mins[p] = mins[c0];  // p <= c0: the slot is already consumed
      }
      level_first = parent_first;
      level_nodes = parents;
      ++height_;
    }
    root_ = level_first;
    unique_keys_ = u;
  }

  /// Child index for value `v`: first separator > v (equal keys go right).
  static int ChildSlot(const Internal& in, const Value& v) {
    int lo = 0, hi = in.count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (v < in.keys[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// First leaf slot with key >= v.
  static int LeafLowerBound(const Leaf& leaf, const Value& v) {
    int lo = 0, hi = leaf.count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (leaf.keys[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Recursive insert. Returns true iff the node at `node_idx` split, in
  /// which case *out holds the separator and both halves by value (the caller
  /// owns placing them into a fresh contiguous group).
  bool InsertRec(uint32_t node_idx, int depth, const Value& v,
                 const PList& chain, Split* out) {
    if (depth == height_ - 1) {
      return InsertLeaf(node_idx, v, chain, out);
    }

    // Copy routing state; the recursive call may reallocate the arena.
    const int slot = ChildSlot(nodes_[node_idx].internal, v);
    const uint32_t child = nodes_[node_idx].internal.first_child + slot;

    Split child_split;
    if (!InsertRec(child, depth + 1, v, chain, &child_split)) {
      return false;
    }

    // Child `slot` split: rebuild the child group one node wider.
    const uint16_t old_count = nodes_[node_idx].internal.count;
    const uint32_t old_first = nodes_[node_idx].internal.first_child;
    const uint32_t n_children = old_count + 1u;

    if (old_count < kInternalKeys) {
      const uint32_t new_first = AllocGroup(n_children + 1);
      for (uint32_t k = 0; k < static_cast<uint32_t>(slot); ++k) {
        nodes_[new_first + k] = nodes_[old_first + k];
      }
      nodes_[new_first + slot] = child_split.left;
      nodes_[new_first + slot + 1] = child_split.right;
      for (uint32_t k = slot + 1; k < n_children; ++k) {
        nodes_[new_first + k + 1] = nodes_[old_first + k];
      }
      Internal& in = nodes_[node_idx].internal;  // re-acquire after alloc
      for (int k = old_count; k > slot; --k) {
        in.keys[k] = in.keys[k - 1];
      }
      in.keys[slot] = child_split.separator;
      in.count = static_cast<uint16_t>(old_count + 1);
      in.first_child = new_first;
      return false;
    }

    // This internal node is full: split it into two nodes, each with its own
    // contiguous child group, and bubble the middle separator up.
    Value all_keys[kInternalKeys + 1];
    {
      const Internal& in = nodes_[node_idx].internal;
      for (int k = 0; k < slot; ++k) all_keys[k] = in.keys[k];
      all_keys[slot] = child_split.separator;
      for (int k = slot; k < static_cast<int>(kInternalKeys); ++k) {
        all_keys[k + 1] = in.keys[k];
      }
    }
    std::vector<Node> staged(n_children + 1);
    for (uint32_t k = 0; k < static_cast<uint32_t>(slot); ++k) {
      staged[k] = nodes_[old_first + k];
    }
    staged[slot] = child_split.left;
    staged[slot + 1] = child_split.right;
    for (uint32_t k = slot + 1; k < n_children; ++k) {
      staged[k + 1] = nodes_[old_first + k];
    }

    const uint32_t total_children = n_children + 1;  // kInternalKeys + 2
    const uint32_t left_nc = (total_children + 1) / 2;
    const uint32_t right_nc = total_children - left_nc;
    const uint32_t group_l = AllocGroup(left_nc);
    const uint32_t group_r = AllocGroup(right_nc);
    for (uint32_t k = 0; k < left_nc; ++k) nodes_[group_l + k] = staged[k];
    for (uint32_t k = 0; k < right_nc; ++k) {
      nodes_[group_r + k] = staged[left_nc + k];
    }

    out->separator = all_keys[left_nc - 1];
    std::memset(&out->left, 0, sizeof(Node));
    std::memset(&out->right, 0, sizeof(Node));
    out->left.internal.first_child = group_l;
    out->left.internal.count = static_cast<uint16_t>(left_nc - 1);
    for (uint32_t k = 0; k + 1 < left_nc; ++k) {
      out->left.internal.keys[k] = all_keys[k];
    }
    out->right.internal.first_child = group_r;
    out->right.internal.count = static_cast<uint16_t>(right_nc - 1);
    for (uint32_t k = 0; k + 1 < right_nc; ++k) {
      out->right.internal.keys[k] = all_keys[left_nc + k];
    }
    return true;
  }

  bool InsertLeaf(uint32_t node_idx, const Value& v, const PList& chain,
                  Split* out) {
    {
      Leaf& leaf = nodes_[node_idx].leaf;
      const int pos = LeafLowerBound(leaf, v);
      if (pos < leaf.count && leaf.keys[pos] == v) {
        AppendPList(leaf.postings[pos], chain);
        return false;
      }
      if (leaf.count < static_cast<int>(kLeafKeys)) {
        const uint32_t list_id = NewPList(chain);
        Leaf& l = nodes_[node_idx].leaf;  // re-acquire: NewPList is arena-safe
        for (int k = l.count; k > pos; --k) {
          l.keys[k] = l.keys[k - 1];
          l.postings[k] = l.postings[k - 1];
        }
        l.keys[pos] = v;
        l.postings[pos] = list_id;
        ++l.count;
        ++unique_keys_;
        return false;
      }
    }

    // Leaf full: split into two halves with the new key placed in order.
    const uint32_t list_id = NewPList(chain);
    const Leaf leaf = nodes_[node_idx].leaf;  // snapshot
    const int pos = LeafLowerBound(leaf, v);

    Value keys[kLeafKeys + 1];
    uint32_t posts[kLeafKeys + 1];
    for (int k = 0; k < pos; ++k) {
      keys[k] = leaf.keys[k];
      posts[k] = leaf.postings[k];
    }
    keys[pos] = v;
    posts[pos] = list_id;
    for (int k = pos; k < static_cast<int>(kLeafKeys); ++k) {
      keys[k + 1] = leaf.keys[k];
      posts[k + 1] = leaf.postings[k];
    }

    const int total = static_cast<int>(kLeafKeys) + 1;
    const int left_n = (total + 1) / 2;
    const int right_n = total - left_n;

    std::memset(&out->left, 0, sizeof(Node));
    std::memset(&out->right, 0, sizeof(Node));
    Leaf& lo = out->left.leaf;
    Leaf& hi = out->right.leaf;
    lo.count = static_cast<uint16_t>(left_n);
    hi.count = static_cast<uint16_t>(right_n);
    for (int k = 0; k < left_n; ++k) {
      lo.keys[k] = keys[k];
      lo.postings[k] = posts[k];
    }
    for (int k = 0; k < right_n; ++k) {
      hi.keys[k] = keys[left_n + k];
      hi.postings[k] = posts[left_n + k];
    }
    out->separator = hi.keys[0];
    ++unique_keys_;
    return true;
  }

  template <typename Fn>
  void Walk(uint32_t node_idx, int depth, Fn&& fn) const {
    if (depth == height_ - 1) {
      const Leaf& leaf = nodes_[node_idx].leaf;
      for (int k = 0; k < leaf.count; ++k) {
        fn(leaf.keys[k], MakeCursor(leaf.postings[k]));
      }
      return;
    }
    const Internal& in = nodes_[node_idx].internal;
    for (uint32_t c = 0; c <= in.count; ++c) {
      Walk(in.first_child + c, depth + 1, fn);
    }
  }

  template <typename Fn>
  void WalkRange(uint32_t node_idx, int depth, const Value& lo,
                 const Value& hi, Fn&& fn) const {
    if (depth == height_ - 1) {
      const Leaf& leaf = nodes_[node_idx].leaf;
      for (int k = LeafLowerBound(leaf, lo); k < leaf.count; ++k) {
        if (hi < leaf.keys[k]) break;
        fn(leaf.keys[k], MakeCursor(leaf.postings[k]));
      }
      return;
    }
    const Internal& in = nodes_[node_idx].internal;
    // Child c covers [keys[c-1], keys[c]); prune children fully outside.
    const int first = ChildSlot(in, lo);
    for (int c = first; c <= in.count; ++c) {
      if (c > 0 && hi < in.keys[c - 1]) break;
      WalkRange(in.first_child + c, depth + 1, lo, hi, fn);
    }
  }

  uint64_t CountLive(uint32_t node_idx, int depth) const {
    if (depth == height_ - 1) return 1;
    const Internal& in = nodes_[node_idx].internal;
    uint64_t n = 1;
    for (uint32_t c = 0; c <= in.count; ++c) {
      n += CountLive(in.first_child + c, depth + 1);
    }
    return n;
  }

  std::vector<Node> nodes_;
  // Postings links as a structure-of-arrays: tuple ids and next-indices.
  std::vector<uint32_t> link_tids_;
  std::vector<uint32_t> link_nexts_;
  std::vector<PList> lists_;
  uint32_t root_ = 0;
  int height_ = 1;
  uint64_t unique_keys_ = 0;
  uint64_t total_tuples_ = 0;
};

}  // namespace deltamerge
