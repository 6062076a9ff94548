// Every finding in this file carries a reasoned allow-comment: exit 0.
#include <string>

struct NodeMsg {
  enum class Type : char {
    kOne = 'z',
    // simlint:allow(duplicate-tag) fixture: collision is the point here
    kTwo = 'z',
  };
  Type type;
  std::string encode() const;
};

struct Counter { void incr() const; };
struct Chan { void send(const std::string&); };

struct Node {
  Counter c_unexpected_msgs_;
  Chan ch_;
  void apply(const NodeMsg& m);
  void dispatch(const NodeMsg& m) {
    // simlint:allow(unhandled-tag) fixture: kTwo intentionally left unwired
    switch (m.type) {
      case NodeMsg::Type::kOne:
        apply(m);
        break;
      default:
        c_unexpected_msgs_.incr();
        break;
    }
  }
  void send_both() {
    ch_.send(NodeMsg{NodeMsg::Type::kOne, 0}.encode());
    // simlint:allow(dead-send) fixture: receiver lands in a later PR
    ch_.send(NodeMsg{NodeMsg::Type::kTwo, 0}.encode());
  }
};

int main() {
  Node n;
  n.dispatch(NodeMsg{NodeMsg::Type::kOne});
  n.send_both();
  return 0;
}
