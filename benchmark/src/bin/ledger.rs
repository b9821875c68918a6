//! The untraced ledger binary: no counting allocator, no spans, no sink.

fn main() {
    std::process::exit(nylon_ledger::run(None));
}
