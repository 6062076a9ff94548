// The dispatch switch hides kBeta/kGamma behind `default`, and the type
// table forgot kGamma — both are how a new enum value silently rots.
#include <string>

struct NodeMsg {
  enum class Type : char {
    kAlpha = 'a',
    kBeta = 'b',
    kGamma = 'g',
  };
  Type type;
  std::string encode() const;
};

constexpr NodeMsg::Type kKnownTypes[] = {
    NodeMsg::Type::kAlpha,
    NodeMsg::Type::kBeta,
};

struct Counter { void incr() const; };
struct Chan { void send(const std::string&); };

struct Node {
  Counter c_unexpected_msgs_;
  Chan ch_;
  void apply(const NodeMsg& m);
  void dispatch(const NodeMsg& m) {
    switch (m.type) {
      case NodeMsg::Type::kAlpha:
        apply(m);
        break;
      default:
        c_unexpected_msgs_.incr();
        break;
    }
  }
  void send_alpha() { ch_.send(NodeMsg{NodeMsg::Type::kAlpha, 0}.encode()); }
};

int main() {
  Node n;
  n.dispatch(NodeMsg{NodeMsg::Type::kAlpha});
  n.send_alpha();
  return 0;
}
