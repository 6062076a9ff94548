struct NodeMsg {
  enum class Type : char {
    kOne = 'z',
    // simlint:allow(duplicate-tag)
    kTwo = 'z',
  };
  Type type;
};
