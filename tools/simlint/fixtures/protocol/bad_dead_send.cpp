// kDrop is sent on the wire but every dispatch switch explicitly ignores
// it — the sender believes in a conversation nobody is having.
#include <string>

struct NodeMsg {
  enum class Type : char {
    kKeep = 'k',
    kDrop = 'd',
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
    switch (m.type) {
      case NodeMsg::Type::kKeep:
        apply(m);
        break;
      case NodeMsg::Type::kDrop:
        c_unexpected_msgs_.incr();
        break;
    }
  }
  void send_both() {
    ch_.send(NodeMsg{NodeMsg::Type::kKeep, 0}.encode());
    ch_.send(NodeMsg{NodeMsg::Type::kDrop, 0}.encode());
  }
};

int main() {
  Node n;
  n.dispatch(NodeMsg{NodeMsg::Type::kKeep});
  n.send_both();
  return 0;
}
