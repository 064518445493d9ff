//@ expect: R3-protect-before-deref
// A `// LINT:` waiver must name its kind (op-scoped, quiescent or
// exclusive) and give a reason after an em dash. Each comment below
// only looks like a waiver, so each fn's unprotected deref is still
// reported under R3.
struct Node {
    key: i64,
}

// nothing here is LINT: approved, this is prose
fn prose(node: *const Node) -> i64 {
    // SAFETY: the author claims the node is alive.
    unsafe { (*node).key }
}

// LINT: op-scope — the kind is misspelled.
fn misspelled(node: *const Node) -> i64 {
    // SAFETY: the author claims the node is alive.
    unsafe { (*node).key }
}

// LINT: quiescent —
fn no_reason(node: *const Node) -> i64 {
    // SAFETY: the author claims the node is alive.
    unsafe { (*node).key }
}
