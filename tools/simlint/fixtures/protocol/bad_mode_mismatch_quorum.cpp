// simlint:protocol(quorum)
// The quorum half of bad_mode_mismatch.cpp: it claims kState, which only
// the chain protocol sends.
#include <string>

struct NodeMsg {
  enum class Type : char {
    kData = 'd',
    kState = 's',
  };
  Type type;
};

struct QuorumNode {
  void apply(const NodeMsg& m);

  bool on_frame(const NodeMsg& m) {
    if (m.type == NodeMsg::Type::kState) {
      apply(m);
      return true;
    }
    return false;
  }
};
