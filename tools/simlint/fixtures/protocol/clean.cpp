// simlint:protocol(chain)
// Clean protocol: unique tags, exhaustive dispatch, every sent tag actively
// handled, a protocol-owned tag sent and claimed within its protocol's file,
// WSEQ commands with both sides, a pure observe-only helper, and an
// exhaustive type table.
#include <string>
#include <vector>

struct NodeMsg {
  enum class Type : char {
    kPing = 'p',
    kPong = 'q',
    kLegacy = 'l',
  };
  Type type;
  long field = 0;
  std::string encode() const;
};

constexpr NodeMsg::Type kAllTypes[] = {
    NodeMsg::Type::kPing,
    NodeMsg::Type::kPong,
    NodeMsg::Type::kLegacy,
};

struct Counter { void incr() const; };
struct Chan { void send(const std::string&); };

struct Node {
  Counter c_unexpected_msgs_;
  Chan ch_;

  void apply(const NodeMsg& m);

  // The protocol object's first look at a frame: it claims kPong.
  bool on_frame(const NodeMsg& m) {
    if (m.type == NodeMsg::Type::kPong) {
      apply(m);
      return true;
    }
    return false;
  }

  void dispatch(const NodeMsg& m) {
    if (on_frame(m)) return;
    switch (m.type) {
      case NodeMsg::Type::kPing:
        apply(m);
        break;
      case NodeMsg::Type::kPong:
        c_unexpected_msgs_.incr();
        break;
      case NodeMsg::Type::kLegacy:
        c_unexpected_msgs_.incr();
        break;
    }
  }

  void send_ping() { ch_.send(NodeMsg{NodeMsg::Type::kPing, 1}.encode()); }

  void send_pong() { ch_.send(NodeMsg{NodeMsg::Type::kPong, 2}.encode()); }

  // simlint:observe-only
  long depth_estimate() const { return 40; }

  void send_wseq(std::vector<std::string>& out) {
    out.emplace_back("WSEQ");
  }

  void handle_resp(const std::vector<std::string>& argv) {
    if (argv[0] == "WSEQ") {
      apply(NodeMsg{NodeMsg::Type::kPing, 0});
    }
  }
};

int main() {
  Node n;
  n.dispatch(NodeMsg{NodeMsg::Type::kPing, 0});
  n.send_ping();
  n.send_pong();
  n.depth_estimate();
  return 0;
}
