// Node identity for opacity graphs — Definition 6.3's
// N = txns(H) ∪ nontxn(H), mapped to dense indices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "history/history.hpp"

namespace privstm::opacity {

/// A graph node: either transaction #index or NT access #index of the
/// underlying history.
struct NodeRef {
  enum class Type : std::uint8_t { kTxn, kNt };
  Type type = Type::kTxn;
  std::size_t index = 0;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

/// Dense numbering: transactions first, then NT accesses.
class NodeTable {
 public:
  explicit NodeTable(const hist::History& h)
      : txn_count_(h.txns().size()), nt_count_(h.nt_accesses().size()) {}

  std::size_t size() const noexcept { return txn_count_ + nt_count_; }
  std::size_t txn_count() const noexcept { return txn_count_; }
  std::size_t nt_count() const noexcept { return nt_count_; }

  std::size_t id_of(NodeRef ref) const noexcept {
    return ref.type == NodeRef::Type::kTxn ? ref.index
                                           : txn_count_ + ref.index;
  }
  std::size_t id_of_txn(std::size_t txn) const noexcept { return txn; }
  std::size_t id_of_nt(std::size_t nt) const noexcept {
    return txn_count_ + nt;
  }

  NodeRef ref_of(std::size_t id) const noexcept {
    if (id < txn_count_) return {NodeRef::Type::kTxn, id};
    return {NodeRef::Type::kNt, id - txn_count_};
  }

  bool is_txn(std::size_t id) const noexcept { return id < txn_count_; }

  std::string name(std::size_t id) const {
    const bool txn = is_txn(id);
    std::string out = txn ? "T" : "nt";
    out += std::to_string(txn ? id : id - txn_count_);
    return out;
  }

  /// Node of an action (by owner), or npos for fence / unowned actions.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t node_of_action(const hist::History& h, std::size_t i) const {
    const auto& o = h.owner(i);
    switch (o.kind) {
      case hist::ActionOwner::Kind::kTxn:
        return id_of_txn(o.index);
      case hist::ActionOwner::Kind::kNtAccess:
        return id_of_nt(o.index);
      default:
        return npos;
    }
  }

 private:
  std::size_t txn_count_;
  std::size_t nt_count_;
};

}  // namespace privstm::opacity
