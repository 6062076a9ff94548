// simlint:protocol(chain)
// Two protocol files disagree on a tag: the chain protocol sends kState,
// but only the quorum protocol's file (bad_mode_mismatch_quorum.cpp)
// handles it. Under chain nobody listens; under quorum nobody sends.
#include <string>

struct NodeMsg {
  enum class Type : char {
    kData = 'd',
    kState = 's',
  };
  Type type;
  std::string encode() const;
};

struct Stats { void incr(const char*); };
struct Chan { void send(const std::string&); };

struct ChainNode {
  Stats stats_;
  Chan ch_;
  void apply(const NodeMsg& m);

  void dispatch(const NodeMsg& m) {
    switch (m.type) {
      case NodeMsg::Type::kData:
        apply(m);
        break;
      case NodeMsg::Type::kState:
        stats_.incr("unexpected_msgs");
        break;
    }
  }

  void send_data() { ch_.send(NodeMsg{NodeMsg::Type::kData, 0}.encode()); }
  void send_state() { ch_.send(NodeMsg{NodeMsg::Type::kState, 0}.encode()); }
};

int main() {
  ChainNode n;
  n.dispatch(NodeMsg{NodeMsg::Type::kData});
  n.send_data();
  n.send_state();
  return 0;
}
