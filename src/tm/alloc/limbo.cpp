#include "tm/alloc/limbo.hpp"

#include <algorithm>

namespace privstm::tm::alloc {

void LimboList::seal(std::vector<LimboBlock>& blocks) {
  if (blocks.empty()) return;
  if (count_ == ring_.size()) grow();
  SealedBatch& slot = ring_[(head_ + count_) & (ring_.size() - 1)];
  pending_blocks_ += blocks.size();
  slot.blocks.swap(blocks);
  slot.ticket = qm_.issue_ticket();
  blocks.clear();
  ++count_;
}

void LimboList::grow() {
  // Rotate the live batches to the front, then append empty slots; the
  // rotation swaps slots, so no buffer is reallocated or dropped.
  std::rotate(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(head_),
              ring_.end());
  head_ = 0;
  ring_.resize(std::max(kMinRing, 2 * ring_.size()));
}

std::size_t LimboList::retire(std::vector<LimboBlock>& out) {
  std::size_t blocks = 0;
  while (front_elapsed()) {
    auto& batch = ring_[head_].blocks;
    out.insert(out.end(), batch.begin(), batch.end());
    blocks += batch.size();
    pending_blocks_ -= batch.size();
    batch.clear();  // keeps the buffer for a later seal
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    ++batches_retired_;
    qm_.count(0, rt::Counter::kLimboBatchRetired);
  }
  blocks_retired_ += blocks;
  return blocks;
}

void LimboList::clear() {
  for (SealedBatch& b : ring_) b.blocks.clear();
  head_ = count_ = 0;
  pending_blocks_ = 0;
  batches_retired_ = blocks_retired_ = 0;
}

}  // namespace privstm::tm::alloc
